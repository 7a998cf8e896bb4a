//! The traced run measures the same program: `ParityMemory` over the
//! `Timed` codec wrapper returns the same reads, keeps the same counters
//! and holds the same parity as over the bare codec, on a seeded sequence
//! with a failed chip.

use ecc_parity::{LineLoc, ParityMemory};
use eccparity_benchmark::soak::{replay, soak_shape, Replay};
use eccparity_benchmark::timed::Timed;

fn counts(r: &Replay) -> [u64; 8] {
    [
        r.fill_lines,
        r.writes,
        r.clean_reads,
        r.corrected_reads,
        r.refused,
        r.wrong,
        r.transcript,
        r.accesses(),
    ]
}

#[test]
fn timed_codec_leaves_reads_stats_and_parity_unchanged() {
    let shape = soak_shape();
    for scheme in ["lotecc5", "chipkill36", "raim"] {
        for seed in [1, 2] {
            let codec = || resilience::scheme_by_name(scheme).expect("a default scheme");
            let mut bare = ParityMemory::new(codec(), shape);
            let mut timed = ParityMemory::new(Timed::new(codec()), shape);
            let a = replay(&mut bare, seed, 2048);
            let b = replay(&mut timed, seed, 2048);

            assert_eq!(counts(&a), counts(&b), "{scheme} seed {seed}: reads differ");
            assert_eq!(
                a.wrong, 0,
                "{scheme} seed {seed}: a read returned wrong bytes"
            );
            assert!(
                a.corrected_reads > 0,
                "{scheme} seed {seed}: the fault was never read"
            );
            assert_eq!(
                bare.stats(),
                timed.stats(),
                "{scheme} seed {seed}: MemStats differ"
            );
            assert_eq!(
                bare.audit_parity_consistency(),
                timed.audit_parity_consistency(),
                "{scheme} seed {seed}"
            );
            for channel in 0..shape.channels {
                for bank in 0..shape.banks_per_channel {
                    for row in 0..shape.data_rows {
                        for line in 0..shape.lines_per_row {
                            let loc = LineLoc { bank, row, line };
                            assert_eq!(
                                bare.raw_view(channel, &loc).expect("in range"),
                                timed.raw_view(channel, &loc).expect("in range"),
                                "{scheme} seed {seed}: stored line differs"
                            );
                            let group = bare.layout().group_of(channel, &loc);
                            assert_eq!(
                                bare.compute_parity_from_scratch(&group),
                                timed.compute_parity_from_scratch(&group),
                                "{scheme} seed {seed}: parity differs"
                            );
                        }
                    }
                }
            }
            assert!(timed.ecc().calls() > 0 && timed.ecc().ns() > 0);
        }
    }
}
