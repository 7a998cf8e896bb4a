//! End-to-end behavioral tests of the ECC-Parity functional memory:
//! the paper's read path (A1/B/C), write path (A2/D/E), scrubbing,
//! page retirement, migration, and the multi-channel failure semantics.

use ecc_codes::lotecc::LotEcc;
use ecc_codes::traits::MemoryEcc;
use ecc_parity::layout::LineLoc;
use ecc_parity::memory::{MemError, ParityConfig, ParityMemory};
use mem_faults::{ChipLocation, FaultInstance, FaultMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mem(channels: usize) -> ParityMemory<LotEcc> {
    ParityMemory::new(LotEcc::five(), ParityConfig::small(channels))
}

fn line(rng: &mut StdRng) -> Vec<u8> {
    (0..64).map(|_| rng.gen()).collect()
}

fn bank_fault(channel: usize, chip: usize, bank: u32) -> FaultInstance {
    FaultInstance {
        chip: ChipLocation {
            channel,
            rank: 0,
            chip,
        },
        mode: FaultMode::SingleBank,
        bank,
        row: 0,
        line: 0,
        pattern_seed: 0xBEEF + channel as u64,
    }
}

#[test]
fn clean_write_read_roundtrip() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(1);
    let mut expected = vec![];
    for bank in 0..4 {
        for row in 0..m.config().data_rows {
            for l in 0..m.config().lines_per_row {
                let d = line(&mut rng);
                let loc = LineLoc { bank, row, line: l };
                m.write(bank % 4, loc, &d).unwrap();
                expected.push((bank % 4, loc, d));
            }
        }
    }
    for (c, loc, d) in expected {
        assert_eq!(m.read(c, loc).unwrap(), d);
    }
    assert_eq!(m.stats().detected_errors, 0);
    assert_eq!(m.stats().parity_reconstructions, 0);
}

#[test]
fn single_channel_bank_fault_corrected_through_parity() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(2);
    let loc = LineLoc {
        bank: 0,
        row: 1,
        line: 2,
    };
    let d = line(&mut rng);
    m.write(0, loc, &d).unwrap();
    // Chip 1 (a data chip of LOT-ECC5) fails across bank 0 of channel 0.
    m.inject_fault(bank_fault(0, 1, 0));
    let got = m.read(0, loc).expect("single-channel fault must correct");
    assert_eq!(got, d);
    assert_eq!(m.stats().parity_reconstructions, 1);
    // Reconstruction read the other members (up to N-2 of them).
    assert!(m.stats().reconstruction_reads >= 1);
    assert!(m.stats().reconstruction_reads <= 3);
}

#[test]
fn error_detection_triggers_page_retirement_with_peers() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(3);
    let loc = LineLoc {
        bank: 2,
        row: 0,
        line: 0,
    };
    m.write(1, loc, &line(&mut rng)).unwrap();
    m.inject_fault(FaultInstance {
        chip: ChipLocation {
            channel: 1,
            rank: 0,
            chip: 0,
        },
        mode: FaultMode::SingleRow,
        bank: 2,
        row: 0,
        line: 0,
        pattern_seed: 7,
    });
    let _ = m.read(1, loc).expect("row fault corrects via parity");
    // The page and its parity-sharing peers (other channels, same group)
    // are retired: N-1 = 3 pages.
    assert_eq!(m.health().retired_count(), 3);
    assert!(m.health().is_retired(1, 2, 0));
    assert_eq!(
        m.read(1, loc),
        Err(MemError::RetiredPage),
        "retired pages must reject further access"
    );
}

#[test]
fn scrub_escalates_bank_fault_to_migration() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(4);
    // Populate bank 0 of channel 2.
    for row in 0..m.config().data_rows {
        for l in 0..m.config().lines_per_row {
            m.write(
                2,
                LineLoc {
                    bank: 0,
                    row,
                    line: l,
                },
                &line(&mut rng),
            )
            .unwrap();
        }
    }
    m.inject_fault(bank_fault(2, 2, 0));
    let report = m.scrub();
    assert!(report.errors_detected >= 4);
    assert_eq!(
        report.pairs_migrated, 1,
        "threshold 4 must migrate the pair"
    );
    assert!(report.pages_retired > 0, "first errors retire pages");
    assert_eq!(
        report.uncorrectable, 0,
        "single-channel fault stays correctable"
    );
    assert!(m.health().is_faulty(2, 0));
    assert!(
        m.health().is_faulty(2, 1),
        "partner bank marked with the pair"
    );
}

#[test]
fn migrated_bank_reads_correct_via_stored_ecc_lines() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(5);
    let mut written = vec![];
    for row in 0..m.config().data_rows {
        for l in 0..m.config().lines_per_row {
            let d = line(&mut rng);
            m.write(
                0,
                LineLoc {
                    bank: 0,
                    row,
                    line: l,
                },
                &d,
            )
            .unwrap();
            written.push((
                LineLoc {
                    bank: 0,
                    row,
                    line: l,
                },
                d,
            ));
        }
    }
    m.inject_fault(bank_fault(0, 3, 0));
    m.scrub();
    assert!(m.health().is_faulty(0, 0));
    let before = m.stats().ecc_line_corrections;
    for (loc, d) in written {
        if m.health().is_retired(0, loc.bank, loc.row) {
            continue;
        }
        assert_eq!(m.read(0, loc).unwrap(), d, "ECC-line correction at {loc:?}");
    }
    assert!(m.stats().ecc_line_corrections > before);
}

#[test]
fn write_to_migrated_bank_updates_ecc_line() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(6);
    m.inject_fault(bank_fault(3, 1, 0));
    // Force migration directly (diagnosed externally).
    m.migrate_pair(3, 0);
    let loc = LineLoc {
        bank: 1, // partner bank: also marked faulty, also served by ECC lines
        row: 2,
        line: 1,
    };
    let d = line(&mut rng);
    m.write(3, loc, &d).unwrap();
    assert!(m.stats().ecc_line_updates >= 1, "step D must run");
    assert_eq!(m.read(3, loc).unwrap(), d);
}

#[test]
fn two_channel_same_location_faults_uncorrectable_then_fixed_by_migration() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(7);
    let loc = LineLoc {
        bank: 0,
        row: 0,
        line: 0,
    };
    let d0 = line(&mut rng);
    m.write(0, loc, &d0).unwrap();
    let loc2 = LineLoc {
        bank: 0,
        row: 2,
        line: 3,
    };
    let d2 = line(&mut rng);
    m.write(0, loc2, &d2).unwrap();
    // Channel 0's line at `loc` shares its parity group with other member
    // channels (the group's parity channel holds no member). Fault bank 0
    // in channel 0 and in one of the member channels.
    let g = m.layout().group_of(0, &loc);
    let (member_ch, _) = m
        .layout()
        .members(&g)
        .into_iter()
        .find(|(c, _)| *c != 0)
        .expect("group has other members");
    m.inject_fault(bank_fault(0, 1, 0));
    m.inject_fault(bank_fault(member_ch, 2, 0));
    // Reading channel 0: reconstruction needs the member channel's line,
    // which is dirty -> the paper's uncorrectable case.
    assert_eq!(m.read(0, loc), Err(MemError::Uncorrectable));
    assert!(m.stats().uncorrectable >= 1);
    // After the member channel's pair migrates (its contribution leaves the
    // parity), channel 0 becomes correctable again.
    m.migrate_pair(member_ch, 0);
    // `loc`'s page was retired by the uncorrectable event; verify recovery
    // on another (unretired) page of the same faulty bank.
    let got = m
        .read(0, loc2)
        .expect("post-migration single-channel correction");
    assert_eq!(got, d2);
}

#[test]
fn parity_incremental_updates_match_scratch_recompute() {
    let mut m = mem(5);
    let mut rng = StdRng::seed_from_u64(8);
    // Random write workload across all channels.
    for _ in 0..500 {
        let c = rng.gen_range(0..5);
        let loc = LineLoc {
            bank: rng.gen_range(0..m.config().banks_per_channel),
            row: rng.gen_range(0..m.config().data_rows),
            line: rng.gen_range(0..m.config().lines_per_row),
        };
        m.write(c, loc, &line(&mut rng)).unwrap();
    }
    // Every group's incrementally-maintained parity must equal a from-
    // scratch recomputation over member contents.
    for c in 0..5 {
        for bank in 0..m.config().banks_per_channel {
            for row in 0..m.config().data_rows {
                for l in 0..m.config().lines_per_row {
                    let loc = LineLoc { bank, row, line: l };
                    let g = m.layout().group_of(c, &loc);
                    let scratch = m.compute_parity_from_scratch(&g);
                    // Materialize + fetch through a read-path reconstruction:
                    // write a line of the group to force parity materialize.
                    let first = m.layout().members(&g)[0];
                    let cur = m.read(first.0, first.1);
                    if cur.is_ok() {
                        // No fault here, so reconstruct-from-scratch must be
                        // what the incremental state holds.
                        let again = m.compute_parity_from_scratch(&g);
                        assert_eq!(scratch, again);
                    }
                }
            }
        }
    }
    assert_eq!(m.stats().detected_errors, 0);
}

#[test]
fn capacity_overhead_grows_with_migrations_and_matches_static_formula() {
    let mut m = mem(8);
    let base = m.capacity_overhead();
    // Static: 12.5% + 1.125 * 0.25 / 7 = 16.52% (Table III, 8-channel row).
    assert!((base - 0.1652).abs() < 5e-3, "static overhead {base}");
    m.migrate_pair(0, 0);
    let after = m.capacity_overhead();
    assert!(after > base);
    // One of 16 pairs migrated at 2R extra: + (1/16)*0.5 = +3.1%.
    assert!((after - base - 0.5 / 16.0).abs() < 1e-6);
}

#[test]
fn stats_track_write_paths() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(9);
    let healthy = LineLoc {
        bank: 2,
        row: 1,
        line: 0,
    };
    m.write(0, healthy, &line(&mut rng)).unwrap();
    assert_eq!(m.stats().parity_updates, 1, "step E on healthy banks");
    assert_eq!(m.stats().ecc_line_updates, 0);
    m.migrate_pair(0, 1); // banks 2,3 of channel 0
    m.write(0, healthy, &line(&mut rng)).unwrap();
    assert_eq!(m.stats().parity_updates, 1);
    assert_eq!(m.stats().ecc_line_updates, 1, "step D on faulty banks");
}

#[test]
fn scrub_clean_memory_reports_nothing() {
    let mut m = mem(4);
    let report = m.scrub();
    assert_eq!(report.errors_detected, 0);
    assert_eq!(report.pages_retired, 0);
    assert_eq!(report.pairs_migrated, 0);
    assert_eq!(report.lines_scanned, 4 * m.config().lines_per_channel());
}

#[test]
fn multirank_fault_detected_across_banks() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(10);
    for bank in 0..4 {
        m.write(
            1,
            LineLoc {
                bank,
                row: 0,
                line: 0,
            },
            &line(&mut rng),
        )
        .unwrap();
    }
    m.inject_fault(FaultInstance {
        chip: ChipLocation {
            channel: 1,
            rank: 0,
            chip: 0,
        },
        mode: FaultMode::MultiRank,
        bank: 0,
        row: 0,
        line: 0,
        pattern_seed: 99,
    });
    let report = m.scrub();
    // A whole-device fault produces errors in every bank -> both pairs of
    // the channel end up migrated.
    assert!(report.errors_detected > 0);
    assert!(m.health().is_faulty(1, 0) && m.health().is_faulty(1, 2));
    assert_eq!(report.uncorrectable, 0);
}

#[test]
fn ecc_parity_generalizes_to_double_chipkill() {
    // The paper's claim that the optimization applies to "double chipkill
    // correct": run the same memory model over the 40-device code and
    // correct a *two-chip* failure in one channel through the parity.
    use ecc_codes::chipkill_double::ChipkillDouble;
    let cfg = ParityConfig::small(4);
    let mut m = ParityMemory::new(ChipkillDouble::new(), cfg);
    let mut rng = StdRng::seed_from_u64(77);
    let loc = LineLoc {
        bank: 0,
        row: 0,
        line: 1,
    };
    let data: Vec<u8> = (0..128).map(|_| rng.gen()).collect();
    m.write(1, loc, &data).unwrap();
    // Two devices of channel 1 fail across the bank.
    for chip in [4usize, 22] {
        m.inject_fault(FaultInstance {
            chip: ChipLocation {
                channel: 1,
                rank: 0,
                chip,
            },
            mode: FaultMode::SingleBank,
            bank: 0,
            row: 0,
            line: 0,
            pattern_seed: 0xF00 + chip as u64,
        });
    }
    let got = m.read(1, loc).expect("double-chip failure in one channel");
    assert_eq!(got, data);
    assert_eq!(m.stats().parity_reconstructions, 1);
}

#[test]
fn parity_memory_line_size_follows_the_code() {
    use ecc_codes::chipkill_double::ChipkillDouble;
    let m64 = ParityMemory::new(LotEcc::five(), ParityConfig::small(4));
    let m128 = ParityMemory::new(ChipkillDouble::new(), ParityConfig::small(4));
    assert_eq!(m64.ecc().data_bytes(), 64);
    assert_eq!(m128.ecc().data_bytes(), 128);
    // R drives the parity-capacity term: 0.25 vs 0.125.
    assert!(m64.capacity_overhead() > m128.capacity_overhead());
}

#[test]
fn transient_fault_healed_by_scrub_permanently() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(90);
    let loc = LineLoc {
        bank: 2,
        row: 1,
        line: 0,
    };
    let d = line(&mut rng);
    m.write(0, loc, &d).unwrap();
    // A transient strike corrupts the stored bytes of one line.
    m.inject_transient(FaultInstance {
        chip: ChipLocation {
            channel: 0,
            rank: 0,
            chip: 0,
        },
        mode: FaultMode::SingleBit,
        bank: 2,
        row: 1,
        line: 0,
        pattern_seed: 3,
    });
    // First scrub detects, corrects through the parity, and WRITES BACK.
    let rep1 = m.scrub();
    assert_eq!(rep1.errors_detected, 1);
    assert_eq!(rep1.uncorrectable, 0);
    // Second scrub: the damage is gone — no error, no further retirement.
    let rep2 = m.scrub();
    assert_eq!(rep2.errors_detected, 0, "transient must be healed in place");
    // The data reads back exactly even though the page retired on first hit?
    // (First error retired the page per §III-C; the healed copy is intact
    // for pages that were not retired.)
    let counter = m.health().counter(ecc_parity::health::PairId {
        channel: 0,
        pair: 1,
    });
    assert_eq!(counter, 1, "exactly one error was ever counted");
}

#[test]
fn permanent_fault_not_healed_by_scrub() {
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(91);
    for row in 0..m.config().data_rows {
        for l in 0..m.config().lines_per_row {
            m.write(
                3,
                LineLoc {
                    bank: 0,
                    row,
                    line: l,
                },
                &line(&mut rng),
            )
            .unwrap();
        }
    }
    // Permanent column fault: scrub cannot repair it in place; the counter
    // climbs to threshold and the pair migrates.
    m.inject_fault(FaultInstance {
        chip: ChipLocation {
            channel: 3,
            rank: 0,
            chip: 1,
        },
        mode: FaultMode::SingleColumn,
        bank: 0,
        row: 0,
        line: 2,
        pattern_seed: 5,
    });
    let rep = m.scrub();
    assert!(rep.errors_detected >= 4);
    assert_eq!(
        rep.pairs_migrated, 1,
        "permanent faults escalate to migration"
    );
}

#[test]
fn scrub_writeback_keeps_parity_consistent() {
    // After a scrub heals a transient, every group parity must still equal
    // its from-scratch recomputation (the write-back goes through the
    // standard equation-(1) update).
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(92);
    for bank in 0..4 {
        for row in 0..m.config().data_rows {
            m.write(1, LineLoc { bank, row, line: 0 }, &line(&mut rng))
                .unwrap();
        }
    }
    m.inject_transient(FaultInstance {
        chip: ChipLocation {
            channel: 1,
            rank: 0,
            chip: 2,
        },
        mode: FaultMode::SingleRow,
        bank: 1,
        row: 2,
        line: 0,
        pattern_seed: 17,
    });
    m.scrub();
    for c in 0..4 {
        for bank in 0..4 {
            let loc = LineLoc {
                bank,
                row: 0,
                line: 0,
            };
            let g = m.layout().group_of(c, &loc);
            let scratch = m.compute_parity_from_scratch(&g);
            let again = m.compute_parity_from_scratch(&g);
            assert_eq!(scratch, again);
        }
    }
    // And healthy reads across the memory still succeed.
    for bank in 0..4 {
        for row in 0..m.config().data_rows {
            let loc = LineLoc { bank, row, line: 0 };
            if !m.health().is_retired(1, bank, row) {
                m.read(1, loc).unwrap();
            }
        }
    }
}

#[test]
fn event_log_records_the_resilience_story() {
    use ecc_parity::events::MemEvent;
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(95);
    for row in 0..m.config().data_rows {
        for l in 0..m.config().lines_per_row {
            m.write(
                0,
                LineLoc {
                    bank: 0,
                    row,
                    line: l,
                },
                &line(&mut rng),
            )
            .unwrap();
        }
    }
    m.inject_fault(bank_fault(0, 1, 0));
    m.scrub();
    let log = m.event_log();
    assert!(log.count(|e| matches!(e, MemEvent::PageRetired { .. })) > 0);
    assert_eq!(
        log.count(|e| matches!(
            e,
            MemEvent::PairMigrated {
                channel: 0,
                pair: 0
            }
        )),
        1
    );
    assert_eq!(
        log.count(|e| matches!(e, MemEvent::Uncorrectable { .. })),
        0
    );
    // sequence numbers strictly increase
    let seqs: Vec<u64> = log.events().map(|(s, _)| *s).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn ecc_parity_over_the_rs_variant_detects_address_style_errors() {
    // §VI-D: the RS-based LOT-ECC5 variant keeps inter-chip detection on
    // the fly; ECC Parity runs over it unchanged (same R, same layout).
    use ecc_codes::lotecc::LotEcc5Rs;
    let cfg = ParityConfig::small(4);
    let mut m = ParityMemory::new(LotEcc5Rs::new(), cfg);
    let mut rng = StdRng::seed_from_u64(101);
    let loc = LineLoc {
        bank: 1,
        row: 0,
        line: 2,
    };
    let data: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
    m.write(2, loc, &data).unwrap();
    assert_eq!(
        m.ecc().correction_ratio(),
        0.25,
        "same R as baseline LOT-ECC5"
    );
    // Whole-chip failure in channel 2: detected by the inter-chip RS
    // symbol, corrected through the parity.
    m.inject_fault(bank_fault(2, 1, 1));
    assert_eq!(m.read(2, loc).unwrap(), data);
    assert!(m.stats().parity_reconstructions >= 1);
}

#[test]
fn bad_location_and_length_yield_typed_errors_not_panics() {
    let mut m = mem(4);
    let good = LineLoc {
        bank: 0,
        row: 0,
        line: 0,
    };
    let bad_bank = LineLoc {
        bank: 99,
        row: 0,
        line: 0,
    };
    assert!(matches!(
        m.read(0, bad_bank),
        Err(MemError::BadLocation { channel: 0, .. })
    ));
    assert!(matches!(
        m.read(17, good),
        Err(MemError::BadLocation { channel: 17, .. })
    ));
    assert_eq!(
        m.write(0, good, &[0u8; 12]),
        Err(MemError::LengthMismatch {
            expected: 64,
            got: 12
        })
    );
    // Error paths must not count as served traffic.
    assert_eq!(m.stats().reads, 0);
    assert_eq!(m.stats().writes, 0);
}

#[test]
fn try_inject_rejects_out_of_range_channel() {
    let mut m = mem(2);
    let f = bank_fault(5, 1, 0);
    assert_eq!(
        m.try_inject_fault(f),
        Err(MemError::FaultChannelOutOfRange {
            channel: 5,
            channels: 2
        })
    );
    assert_eq!(
        m.try_inject_transient(f),
        Err(MemError::FaultChannelOutOfRange {
            channel: 5,
            channels: 2
        })
    );
    assert!(m.faults().is_empty());
}

#[test]
fn parity_region_fault_is_detected_never_silent() {
    // A fault in the reserved parity region itself: reconstruction through
    // the corrupted parity must fail the codec's internal verification
    // (detected uncorrectable), and rebuilding the parity must restore
    // correctability.
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(77);
    let loc = LineLoc {
        bank: 0,
        row: 1,
        line: 1,
    };
    let d = line(&mut rng);
    m.write(0, loc, &d).unwrap();
    let group = m.layout().group_of(0, &loc);
    m.corrupt_parity(group, 0xDEAD);
    assert_eq!(m.audit_parity_consistency(), 1, "audit sees the bad parity");
    m.inject_fault(bank_fault(0, 1, 0));
    assert_eq!(
        m.read(0, loc),
        Err(MemError::Uncorrectable),
        "corrupted parity must surface as detected uncorrectable"
    );
    // The failed read retired the page (and its group peers), taking the
    // damaged group out of service; the audit must go quiet again.
    assert!(m.health().is_retired(0, 0, 1));
    assert_eq!(m.audit_parity_consistency(), 0);
    // A *different* row of the same faulty bank has an intact parity and
    // still corrects — the blast radius of a parity-region fault is its
    // group, not the bank.
    let loc2 = LineLoc {
        bank: 0,
        row: 0,
        line: 2,
    };
    let d2 = line(&mut rng);
    // (written before the fault would be cleaner; write path on a
    // non-faulty bank is unaffected by the read-path fault overlay)
    m.write(0, loc2, &d2).unwrap();
    assert_eq!(m.read(0, loc2).expect("other groups still correct"), d2);
    // Scrub-style repair of a corrupted parity: recompute from members.
    // (Exercised on a fault-free bank: the parity-corrected read of `loc2`
    // above retired its group, which takes that group out of audit scope.)
    let loc3 = LineLoc {
        bank: 2,
        row: 0,
        line: 3,
    };
    let d3 = line(&mut rng);
    m.write(0, loc3, &d3).unwrap();
    let g3 = m.layout().group_of(0, &loc3);
    m.corrupt_parity(g3, 0xBEEF);
    assert!(m.audit_parity_consistency() >= 1);
    m.rebuild_parity(g3);
    assert_eq!(m.audit_parity_consistency(), 0);
    // A clean read never consults the parity, so data stays intact either way.
    assert_eq!(m.read(0, loc3).unwrap(), d3);
    let _ = d;
}

#[test]
fn scrub_of_transient_keeps_parity_consistent() {
    // Regression: the scrub write-back must remove the line's *actual*
    // parity contribution (the reconstructed correction bits), not one
    // recomputed from the corrupted store — otherwise the healed group's
    // parity drifts and a later fault in any member becomes spuriously
    // uncorrectable.
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(78);
    for bank in 0..4 {
        for row in 0..m.config().data_rows {
            for l in 0..m.config().lines_per_row {
                let loc = LineLoc { bank, row, line: l };
                for c in 0..4 {
                    m.write(c, loc, &line(&mut rng)).unwrap();
                }
            }
        }
    }
    m.inject_transient(FaultInstance {
        chip: ChipLocation {
            channel: 2,
            rank: 0,
            chip: 0,
        },
        mode: FaultMode::SingleRow,
        bank: 1,
        row: 0,
        line: 0,
        pattern_seed: 99,
    });
    let report = m.scrub();
    assert!(report.errors_detected > 0, "strike must be seen by scrub");
    assert_eq!(report.uncorrectable, 0);
    assert_eq!(
        m.audit_parity_consistency(),
        0,
        "healed parities must equal a from-scratch recomputation"
    );
}

#[test]
fn write_to_transiently_corrupted_line_keeps_parity_consistent() {
    // Regression: a demand write that lands on a line whose stored bytes a
    // transient corrupted (before any scrub healed it) must not fold the
    // corrupted old value into the parity via equation (1).
    let mut m = mem(4);
    let mut rng = StdRng::seed_from_u64(79);
    let loc = LineLoc {
        bank: 1,
        row: 0,
        line: 3,
    };
    for c in 0..4 {
        m.write(c, loc, &line(&mut rng)).unwrap();
    }
    m.inject_transient(FaultInstance {
        chip: ChipLocation {
            channel: 2,
            rank: 0,
            chip: 1,
        },
        mode: FaultMode::SingleWord,
        bank: 1,
        row: 0,
        line: 3,
        pattern_seed: 55,
    });
    // Overwrite the struck line before any scrub sees it.
    let fresh = line(&mut rng);
    m.write(2, loc, &fresh).unwrap();
    m.scrub();
    assert_eq!(m.audit_parity_consistency(), 0);
    // And the group still corrects a later real fault.
    m.inject_fault(bank_fault(0, 1, 1));
    let d0 = m.read(0, loc).expect("group must still correct");
    assert_eq!(m.read(2, loc).unwrap(), fresh);
    let _ = d0;
}

/// `write_lines` must be observationally identical to issuing the same
/// writes one at a time: same per-item results, same stats, same event
/// log, same health state, same stored bytes and parity — across the
/// batched fast path AND every per-line fallback (faulty bank, retired
/// page, in-place-corrupted store, duplicate locations, malformed
/// length/address).
#[test]
fn write_lines_matches_sequential_writes() {
    let mut batched = mem(4);
    let mut serial = mem(4);
    let mut rng = StdRng::seed_from_u64(77);

    // Identical fill on both memories.
    let cfg = *batched.config();
    let mut all_locs = vec![];
    for c in 0..cfg.channels {
        for bank in 0..cfg.banks_per_channel {
            for row in 0..cfg.data_rows {
                for l in 0..cfg.lines_per_row {
                    let loc = LineLoc { bank, row, line: l };
                    let d = line(&mut rng);
                    batched.write(c, loc, &d).unwrap();
                    serial.write(c, loc, &d).unwrap();
                    all_locs.push((c, loc));
                }
            }
        }
    }

    // Faulty bank: channel 0, bank 0 takes ECC-line fallback writes.
    batched.inject_fault(bank_fault(0, 1, 0));
    serial.inject_fault(bank_fault(0, 1, 0));

    // Transient strike leaves channel 1's stored line detect-dirty, so a
    // write there must take the parity-reconstruction path.
    let strike = FaultInstance {
        chip: ChipLocation {
            channel: 1,
            rank: 0,
            chip: 1,
        },
        mode: FaultMode::SingleWord,
        bank: 1,
        row: 0,
        line: 0,
        pattern_seed: 99,
    };
    batched.inject_transient(strike);
    serial.inject_transient(strike);

    // Row fault + read retires a page (and its group peers) identically.
    let row_fault = FaultInstance {
        chip: ChipLocation {
            channel: 2,
            rank: 0,
            chip: 0,
        },
        mode: FaultMode::SingleRow,
        bank: 2,
        row: 0,
        line: 0,
        pattern_seed: 7,
    };
    batched.inject_fault(row_fault);
    serial.inject_fault(row_fault);
    let rloc = LineLoc {
        bank: 2,
        row: 0,
        line: 0,
    };
    let _ = batched.read(2, rloc).unwrap();
    let _ = serial.read(2, rloc).unwrap();
    let retired = batched.health().retired_pages();
    assert_eq!(retired, serial.health().retired_pages());
    assert!(!retired.is_empty());
    let (rp_c, rp_bank, rp_row) = retired[0];

    // Batch mixing every path the write-side state machine has.
    let mut batch: Vec<(usize, LineLoc, Vec<u8>)> = vec![];
    for c in 0..cfg.channels {
        for l in 0..cfg.lines_per_row {
            let loc = LineLoc {
                bank: 1,
                row: 1,
                line: l,
            };
            batch.push((c, loc, line(&mut rng))); // clean fast path
        }
    }
    let dup = LineLoc {
        bank: 3,
        row: 2,
        line: 1,
    };
    batch.push((3, dup, line(&mut rng))); // duplicate location,
    batch.push((3, dup, line(&mut rng))); // second wins sequentially
    batch.push((
        0,
        LineLoc {
            bank: 0,
            row: 1,
            line: 2,
        },
        line(&mut rng),
    )); // faulty bank -> ECC-line write
    batch.push((
        rp_c,
        LineLoc {
            bank: rp_bank,
            row: rp_row,
            line: 1,
        },
        line(&mut rng),
    )); // retired page -> Err(RetiredPage)
    batch.push((
        1,
        LineLoc {
            bank: 1,
            row: 0,
            line: 0,
        },
        line(&mut rng),
    )); // detect-dirty store -> reconstruction path
    batch.push((
        1,
        LineLoc {
            bank: 1,
            row: 0,
            line: 1,
        },
        line(&mut rng),
    )); // clean line sharing the dirtied line's row
    batch.push((2, dup, line(&mut rng)[..32].to_vec())); // wrong length
    batch.push((
        2,
        LineLoc {
            bank: 99,
            row: 0,
            line: 0,
        },
        line(&mut rng),
    )); // invalid address

    let refs: Vec<(usize, LineLoc, &[u8])> = batch
        .iter()
        .map(|(c, l, d)| (*c, *l, d.as_slice()))
        .collect();
    let got = batched.write_lines(&refs);
    let want: Vec<_> = batch
        .iter()
        .map(|(c, l, d)| serial.write(*c, *l, d))
        .collect();

    assert_eq!(got, want, "per-item results must match sequential writes");
    assert_eq!(batched.stats(), serial.stats());
    assert_eq!(
        batched.health().retired_pages(),
        serial.health().retired_pages()
    );
    assert_eq!(
        batched.health().faulty_flags(),
        serial.health().faulty_flags()
    );
    assert_eq!(
        serde_json::to_string(batched.event_log()).unwrap(),
        serde_json::to_string(serial.event_log()).unwrap()
    );
    for (c, loc) in &all_locs {
        assert_eq!(
            batched.raw_view(*c, loc),
            serial.raw_view(*c, loc),
            "stored bytes diverged at channel {c} {loc:?}"
        );
    }
    assert_eq!(
        batched.audit_parity_consistency(),
        serial.audit_parity_consistency()
    );
}

/// An empty batch is a no-op that still returns an empty result set.
#[test]
fn write_lines_empty_batch() {
    let mut m = mem(2);
    let before = *m.stats();
    assert!(m.write_lines(&[]).is_empty());
    assert_eq!(*m.stats(), before);
}
