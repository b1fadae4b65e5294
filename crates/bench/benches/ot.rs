//! OT costs: base-OT setup (public-key work) versus extended-OT
//! throughput (the regime that delivers millions of weight labels).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use deepsecure_bigint::DhGroup;
use deepsecure_crypto::Block;
use deepsecure_ot::channel::mem_pair;
use deepsecure_ot::ext::{ExtReceiver, ExtSender};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_ot(c: &mut Criterion) {
    let mut group = c.benchmark_group("ot");
    group.sample_size(10);
    // Built once: the group's Montgomery context and, on first use, its
    // per-process generator table stay outside every timed closure.
    let group_dh = DhGroup::modp_768();

    let mut rng = StdRng::seed_from_u64(5);
    let x = group_dh.random_exponent(&mut rng);
    let (_, base) = group_dh.random_keypair(&mut rng);
    group.bench_function("modexp_fixed_base", |bench| {
        bench.iter(|| group_dh.pow(group_dh.generator(), &x));
    });
    group.bench_function("modexp_var_base", |bench| {
        bench.iter(|| group_dh.pow(&base, &x));
    });
    let batch: Vec<_> = (0..128)
        .map(|_| group_dh.random_keypair(&mut rng).1)
        .collect();
    group.bench_function("batch_invert_128", |bench| {
        bench.iter(|| group_dh.div_batch(&base, &batch));
    });

    group.bench_function("base_ot_setup_128", |bench| {
        bench.iter(|| {
            let (mut ca, mut cb) = mem_pair();
            let g2 = group_dh.clone();
            let handle = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1);
                ExtSender::setup(&mut ca, &g2, &mut rng).unwrap()
            });
            let mut rng = StdRng::seed_from_u64(2);
            let r = ExtReceiver::setup(&mut cb, &group_dh, &mut rng).unwrap();
            let s = handle.join().unwrap();
            (s, r)
        });
    });

    let n = 4096usize;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("iknp_extension_4096", |bench| {
        // One-time setup outside the timed loop.
        let (mut ca, mut cb) = mem_pair();
        let g2 = group_dh.clone();
        let handle = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(3);
            let s = ExtSender::setup(&mut ca, &g2, &mut rng).unwrap();
            (s, ca)
        });
        let mut rng = StdRng::seed_from_u64(4);
        let mut receiver = ExtReceiver::setup(&mut cb, &group_dh, &mut rng).unwrap();
        let (mut sender, mut ca) = handle.join().unwrap();
        let pairs = vec![(Block::ZERO, Block::ONES); n];
        let choices: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        bench.iter(|| {
            std::thread::scope(|scope| {
                let s = scope.spawn(|| sender.send(&mut ca, &pairs).unwrap());
                let got = receiver.receive(&mut cb, &choices).unwrap();
                s.join().unwrap();
                got
            })
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ot);
criterion_main!(benches);
