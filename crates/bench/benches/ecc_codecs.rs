//! Criterion micro-benchmarks of the functional ECC codecs: encode,
//! on-the-fly detection, and correction throughput per scheme.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ecc_codes::{Chipkill18, Chipkill36, LotEcc, MemoryEcc, Raim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_codec(c: &mut Criterion, name: &str, ecc: &dyn MemoryEcc) {
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<u8> = (0..ecc.data_bytes()).map(|_| rng.gen()).collect();
    let cw = ecc.encode(&data);

    let mut g = c.benchmark_group(name);
    g.throughput(Throughput::Bytes(ecc.data_bytes() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| black_box(ecc.encode(black_box(&data))))
    });
    g.bench_function("detect_clean", |b| {
        b.iter(|| black_box(ecc.detect(black_box(&cw.data), black_box(&cw.detection))))
    });
    // single corrupted chip -> correction path
    let mut noisy = cw.data.clone();
    let layout = ecc.chip_layout();
    for span in &layout[0] {
        if span.region == ecc_codes::traits::Region::Data {
            for b in &mut noisy[span.start..span.start + span.len] {
                *b ^= 0x5a;
            }
        }
    }
    g.bench_function("correct_one_chip", |b| {
        b.iter(|| {
            let mut d = noisy.clone();
            let _ = black_box(ecc.correct(&mut d, &cw.detection, &cw.correction, None));
        })
    });
    g.finish();
}

fn benches(c: &mut Criterion) {
    bench_codec(c, "chipkill36", &Chipkill36::new());
    bench_codec(c, "chipkill18", &Chipkill18::new());
    bench_codec(c, "lotecc5", &LotEcc::five());
    bench_codec(c, "lotecc9", &LotEcc::nine());
    bench_codec(c, "raim", &Raim::new());
}

/// Old-vs-new GF(2^8) kernels: the exp/log multiply the codecs used to run
/// on, against the flat 64 KiB table (and, for RS syndromes, the
/// precomputed per-root contexts). The baselines are kept callable exactly
/// so this comparison stays honest as the kernels evolve.
fn bench_gf_kernels(c: &mut Criterion) {
    use ecc_codes::gf::{Field, Gf256};
    use ecc_codes::rs::ReedSolomon;

    let mut rng = StdRng::seed_from_u64(2);
    let pairs: Vec<(u8, u8)> = (0..65536).map(|_| (rng.gen(), rng.gen())).collect();

    let mut g = c.benchmark_group("gf256_mul");
    g.throughput(Throughput::Elements(pairs.len() as u64));
    g.bench_function("exp_log_baseline", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, y) in black_box(&pairs) {
                acc ^= Gf256::mul_exp_log(x, y);
            }
            black_box(acc)
        })
    });
    g.bench_function("flat_table_kernel", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, y) in black_box(&pairs) {
                acc ^= Gf256::mul(x, y);
            }
            black_box(acc)
        })
    });
    // The shape the codecs actually run: a fixed multiplier (genpoly
    // coefficient / root power) against a stream of variable operands.
    let coeff = 0x5au8;
    g.bench_function("exp_log_fixed_multiplier", |b| {
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, _) in black_box(&pairs) {
                acc ^= Gf256::mul_exp_log(coeff, x);
            }
            black_box(acc)
        })
    });
    g.bench_function("ctx_row_fixed_multiplier", |b| {
        let ctx = Gf256::mul_ctx(coeff);
        b.iter(|| {
            let mut acc = 0u8;
            for &(x, _) in black_box(&pairs) {
                acc ^= Gf256::ctx_mul(ctx, x);
            }
            black_box(acc)
        })
    });
    g.finish();

    let rs: ReedSolomon<Gf256> = ReedSolomon::new(4);
    let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
    // `encode` returns the check symbols; the codeword is data ++ parity.
    let mut cw = data.clone();
    cw.extend(rs.encode(&data));

    let mut g = c.benchmark_group("rs_syndrome");
    g.throughput(Throughput::Elements(cw.len() as u64));
    g.bench_function("exp_log_horner_baseline", |b| {
        // The pre-optimization syndrome loop: alpha^j hoisted, every
        // multiply through exp/log.
        b.iter(|| {
            let cw = black_box(&cw);
            let mut out = [0u8; 4];
            for (j, o) in out.iter_mut().enumerate() {
                let a = Gf256::alpha_pow(j as i64);
                let mut acc = 0u8;
                for &s in cw {
                    acc = Gf256::add(Gf256::mul_exp_log(acc, a), s);
                }
                *o = acc;
            }
            black_box(out)
        })
    });
    g.bench_function("precomputed_ctx", |b| {
        b.iter(|| black_box(rs.syndromes_horner(black_box(&cw))))
    });
    g.bench_function("sliced_by_4_ctx", |b| {
        b.iter(|| black_box(rs.syndromes(black_box(&cw))))
    });
    g.finish();

    // Check symbols of one 32-byte word with four roots, the 36-device
    // chipkill word: the bit-serial LFSR against the table-driven linear
    // encoder the Reed–Solomon codecs run.
    let word = &data[..32];
    let checks = Chipkill36::new().check_map();
    let mut g = c.benchmark_group("rs_encode");
    g.throughput(Throughput::Elements(1));
    g.bench_function("lfsr", |b| b.iter(|| black_box(rs.encode(black_box(word)))));
    g.bench_function("linear_table", |b| {
        b.iter(|| black_box(checks.apply(black_box(word))))
    });
    g.finish();
}

/// A full codec's encode throughput in lines/s: 256 cache lines through
/// the 36-device chipkill codec, one `encode` call per line as the write
/// path issues them.
fn bench_lines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    const LANES: usize = 256;

    let ck = Chipkill36::new();
    let lines: Vec<Vec<u8>> = (0..LANES)
        .map(|_| (0..ck.data_bytes()).map(|_| rng.gen()).collect())
        .collect();
    let mut g = c.benchmark_group("chipkill36_encode");
    g.throughput(Throughput::Elements(LANES as u64));
    g.bench_function("per_line", |b| {
        b.iter(|| {
            let out: Vec<_> = black_box(&lines).iter().map(|l| ck.encode(l)).collect();
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(codecs, benches, bench_gf_kernels, bench_lines);
criterion_main!(codecs);
