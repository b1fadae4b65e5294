//! An in-process `serve::server::Server` with persistent `ServeClient`
//! connections, driven open loop (arrivals on a fixed schedule, each
//! query timed from when it was due) or closed loop (back to back).
//!
//! The load generator is the client connections themselves: one thread
//! per connection takes the next due query from a shared schedule, so it
//! never holds more threads or connections than it has clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deepsecure_serve::client::{ClientModel, ClientOptions, QueryOutcome, ServeClient};
use deepsecure_serve::pool::PoolStats;
use deepsecure_serve::server::{ServeConfig, Server, ServerHandle};
use deepsecure_serve::stats::ServeStats;
use deepsecure_serve::ServeError;
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::timed;

/// Longest wait for the precompute pool to fill.
const WARM_TIMEOUT: Duration = Duration::from_secs(120);
/// Budget for each client's TCP connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Set-up timings of one rig.
#[derive(Clone, Debug)]
pub struct RigSetup {
    /// `Server::bind` (which builds the hosted model) to `wait_pool_warm`.
    pub pool_warm_s: f64,
    /// `ClientModel::load` — the client's own `demo::load`.
    pub client_load_s: f64,
    /// `ServeClient::connect` of each connection (handshake + base OT).
    pub connect_s: Vec<f64>,
}

/// A running server plus its client connections.
pub struct Rig {
    handle: ServerHandle,
    server: JoinHandle<ServeStats>,
    /// Client connections, each driven by its own thread.
    pub clients: Vec<ServeClient>,
    /// The client-side model (dataset and circuit).
    pub model: ClientModel,
}

/// One query as the load generator saw it. Times are seconds since the
/// phase started.
#[derive(Debug)]
pub struct Query {
    /// Position in the schedule.
    pub id: u64,
    /// Dataset sample queried.
    pub sample: usize,
    /// Whether spans were recorded for it.
    pub traced: bool,
    /// When it was due (closed loop: when the previous query ended).
    pub due_s: f64,
    /// When its `ServeClient::query` call started.
    pub start_s: f64,
    /// When the call returned.
    pub end_s: f64,
    /// How late the generator woke for it (open loop only).
    pub lag_s: f64,
    /// Largest shard queue depth seen when it started.
    pub queue_depth: usize,
    /// What the server answered.
    pub outcome: Result<QueryOutcome, String>,
}

impl Query {
    /// Latency from due time to answer.
    pub fn latency_s(&self) -> f64 {
        self.end_s - self.due_s
    }

    /// Wait between due time and the start of the call.
    pub fn queue_wait_s(&self) -> f64 {
        self.start_s - self.due_s
    }

    /// Duration of the `ServeClient::query` call.
    pub fn query_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

impl Rig {
    /// Binds a server hosting `model` with program-default pool and
    /// thread settings, waits until its pool is warm, loads the client
    /// model and opens `clients` connections.
    ///
    /// # Errors
    ///
    /// Fails on a bind, model, pool-warm or connect failure.
    pub fn start(
        model: &str,
        chunk_gates: usize,
        clients: usize,
        rng: &mut StdRng,
    ) -> Result<(Rig, RigSetup), ServeError> {
        let t0 = Instant::now();
        let config = ServeConfig {
            models: vec![model.to_string()],
            chunk_gates,
            seed: rng.gen(),
            ..ServeConfig::default()
        };
        let server = Server::bind(&config)?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let stop = |handle: &ServerHandle, join: JoinHandle<ServeStats>| {
            handle.shutdown();
            let _ = join.join();
        };
        if !handle.wait_pool_warm(WARM_TIMEOUT) {
            stop(&handle, join);
            return Err(ServeError::Model(
                "precompute pool never warmed".to_string(),
            ));
        }
        let pool_warm_s = t0.elapsed().as_secs_f64();
        let (client_model, client_load_s) =
            timed(false, "demo.load", 0, || ClientModel::load(model));
        let client_model = match client_model {
            Ok(m) => m,
            Err(e) => {
                stop(&handle, join);
                return Err(ServeError::Model(e));
            }
        };
        let addr = handle.local_addr().to_string();
        let mut conns = Vec::new();
        let mut connect_s = Vec::new();
        for _ in 0..clients {
            let opts = ClientOptions {
                seed: rng.gen(),
                connect_timeout: CONNECT_TIMEOUT,
                ..ClientOptions::default()
            };
            let (conn, s) = timed(false, "serve.connect", 0, || {
                ServeClient::connect_opts(&addr, &client_model, opts)
            });
            match conn {
                Ok(c) => conns.push(c),
                Err(e) => {
                    stop(&handle, join);
                    return Err(e);
                }
            }
            connect_s.push(s);
        }
        let setup = RigSetup {
            pool_warm_s,
            client_load_s,
            connect_s,
        };
        Ok((
            Rig {
                handle,
                server: join,
                clients: conns,
                model: client_model,
            },
            setup,
        ))
    }

    /// The server's precompute-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.handle.pool_stats()
    }

    /// The server's aggregated session counters.
    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    /// Open loop: each `(due_s, sample)` of `schedule` is issued when due
    /// (or as soon as a connection is free). Queries with odd ids are
    /// traced when `trace` is set.
    pub fn open_loop(&mut self, schedule: &[(f64, usize)], trace: bool) -> Vec<Query> {
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(schedule.len()));
        let epoch = Instant::now();
        let handle = &self.handle;
        std::thread::scope(|s| {
            for client in &mut self.clients {
                let (next, done) = (&next, &done);
                s.spawn(move || loop {
                    let id = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&(due_s, sample)) = schedule.get(id) else {
                        break;
                    };
                    let now = epoch.elapsed().as_secs_f64();
                    let mut lag_s = 0.0;
                    if now < due_s {
                        std::thread::sleep(Duration::from_secs_f64(due_s - now));
                        lag_s = epoch.elapsed().as_secs_f64() - due_s;
                    }
                    let traced = trace && id % 2 == 1;
                    let q = issue(
                        client, handle, epoch, id as u64, due_s, lag_s, sample, traced,
                    );
                    done.lock().expect("query log poisoned").push(q);
                });
            }
        });
        let mut out = done.into_inner().expect("query log poisoned");
        out.sort_by_key(|q| q.id);
        out
    }

    /// Closed loop: every connection queries back to back until
    /// `seconds` have passed (at least once), samples drawn from
    /// `samples` in turn.
    pub fn closed_loop(&mut self, seconds: f64, samples: &[usize]) -> (Vec<Query>, f64) {
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        let epoch = Instant::now();
        let handle = &self.handle;
        std::thread::scope(|s| {
            for client in &mut self.clients {
                let (next, done) = (&next, &done);
                s.spawn(move || {
                    let mut due_s = 0.0;
                    loop {
                        let id = next.fetch_add(1, Ordering::SeqCst);
                        let sample = samples[id % samples.len()];
                        let q = issue(client, handle, epoch, id as u64, due_s, 0.0, sample, false);
                        due_s = q.end_s;
                        done.lock().expect("query log poisoned").push(q);
                        if due_s >= seconds {
                            break;
                        }
                    }
                });
            }
        });
        let elapsed = epoch.elapsed().as_secs_f64();
        (done.into_inner().expect("query log poisoned"), elapsed)
    }

    /// Ends every session cleanly, shuts the server down and joins it.
    ///
    /// # Errors
    ///
    /// Fails when a session could not be ended or the server thread
    /// panicked.
    pub fn stop(self) -> Result<(), ServeError> {
        let mut ended = Ok(());
        for c in self.clients {
            if let Err(e) = c.finish() {
                ended = Err(e);
            }
        }
        self.handle.shutdown();
        self.server
            .join()
            .map_err(|_| ServeError::Handshake("server thread panicked".to_string()))?;
        ended
    }
}

#[allow(clippy::too_many_arguments)]
fn issue(
    client: &mut ServeClient,
    handle: &ServerHandle,
    epoch: Instant,
    id: u64,
    due_s: f64,
    lag_s: f64,
    sample: usize,
    traced: bool,
) -> Query {
    let queue_depth = handle.queue_depths().into_iter().max().unwrap_or(0);
    let start_s = epoch.elapsed().as_secs_f64();
    let (outcome, _) = timed(traced, "serve.query", id, || client.query(sample));
    let end_s = epoch.elapsed().as_secs_f64();
    Query {
        id,
        sample,
        traced,
        due_s,
        start_s,
        end_s,
        lag_s,
        queue_depth,
        outcome: outcome.map_err(|e| e.to_string()),
    }
}

/// An open-loop schedule at a constant `rate` (queries per second) over
/// `seconds` (at least one query), samples drawn from `samples`.
///
/// Arrivals are evenly spaced rather than Poisson: with the few dozen
/// queries a run can afford, p90 under Poisson arrivals depends on where
/// the bursts fall, and its spread between seeds was 40-70 % of its
/// median.
pub fn fixed_rate_schedule(
    rng: &mut StdRng,
    rate: f64,
    seconds: f64,
    samples: &[usize],
) -> Vec<(f64, usize)> {
    let n = ((rate * seconds).round() as usize).max(1);
    (0..n)
        .map(|i| {
            (
                (i as f64 + 0.5) / rate,
                samples[rng.gen_range(0..samples.len())],
            )
        })
        .collect()
}
