//! Digest pins for the functional stack: codec → `ParityMemory` → soak.
//!
//! Each pin runs one (scheme, scenario) job through
//! `SoakHarness::run_scheme`, exactly as one `soak --accesses 4096
//! --schemes S --scenarios C` process does, and compares the report with a
//! recorded value:
//! - the verdict counts, accesses, panics, monotonicity violations and
//!   audit failures, as readable text;
//! - an FNV-1a digest of that text plus every retained ledger record, so a
//!   change in which access got which verdict also shows.
//!
//! The values were recorded with the codecs' bit-serial LFSR encoder, so
//! they hold the table-driven encoder to it job by job. A pin moves only
//! when the functional stack's behaviour does; a speed-up must leave every
//! pin as it is.

use resilience::{ScenarioKind, SoakConfig, SoakHarness, SoakReport, DEFAULT_SCHEMES};

/// One soak job: a scheme in a single scenario at the smallest budget.
fn run_job(seed: u64, scheme: &str, scenario: &str) -> SoakReport {
    let cfg = SoakConfig {
        seed,
        accesses: 4096,
        schemes: vec![scheme.to_string()],
        scenarios: vec![ScenarioKind::by_name(scenario).expect("known scenario")],
        ..SoakConfig::default()
    };
    SoakHarness::new(cfg)
        .run_scheme(scheme)
        .expect("known scheme")
}

/// The report's headline numbers in the order the `soak` binary prints
/// them.
fn summary(r: &SoakReport) -> String {
    format!(
        "{} acc {} clean {} parity {} degraded {} unc {} aliased {} sdc {} panics {} mono {} audit {} writes {} rpr {} rpw {} ucw {}",
        r.scheme,
        r.accesses,
        r.counts.clean_reads,
        r.counts.corrected_via_parity,
        r.counts.corrected_degraded,
        r.counts.detected_uncorrectable,
        r.counts.detection_aliased,
        r.counts.silent_corruption,
        r.panics,
        r.monotonicity_violations,
        r.audit_failures,
        r.counts.writes,
        r.counts.retired_page_reads,
        r.counts.retired_page_writes,
        r.counts.uncorrectable_writes,
    )
}

/// FNV-1a over the summary, the scenario tally and every ledger record.
fn digest(r: &SoakReport) -> u64 {
    let mut text = summary(r);
    for (name, runs) in &r.scenarios_run {
        text.push_str(&format!("\n{name} {runs}"));
    }
    for rec in &r.ledger {
        text.push_str(&format!(
            "\n{} {} {} {} {} {} {}",
            rec.scenario, rec.access, rec.channel, rec.bank, rec.row, rec.line, rec.verdict
        ));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Run every `(seed, scheme, scenario)` job and compare it with its pin;
/// report every mismatch at once so one run shows the whole drift.
fn check(pins: &[(u64, &str, &str, &str, u64)]) {
    let mut bad = Vec::new();
    for &(seed, scheme, scenario, want_summary, want_digest) in pins {
        let r = run_job(seed, scheme, scenario);
        let (got_summary, got_digest) = (summary(&r), digest(&r));
        if got_summary != want_summary || got_digest != want_digest {
            bad.push(format!(
                "    ({seed}, \"{scheme}\", \"{scenario}\",\n     \"{got_summary}\",\n     {got_digest:#018x}),"
            ));
        }
    }
    assert!(bad.is_empty(), "pins moved; got:\n{}", bad.join("\n"));
}

#[test]
fn pins_cover_every_default_scheme() {
    for scheme in DEFAULT_SCHEMES {
        assert!(
            SCENARIO_PINS.iter().filter(|p| p.1 == *scheme).count() >= 6,
            "{scheme} needs three scenarios at two seeds"
        );
    }
}

/// Seeds 1 and 5, every default scheme, in three scenarios: transient
/// strikes healed by scrubbing, a damaged parity region, and the
/// stored-ECC-line path of a migrated pair under writes.
const SCENARIO_PINS: &[(u64, &str, &str, &str, u64)] = &[
    (
        1,
        "lotecc5",
        "transient-storm",
        "lotecc5 acc 4579 clean 953 parity 10 degraded 1 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3545 rpr 46 rpw 24 ucw 0",
        0xa97a709c76ecaee7,
    ),
    (
        1,
        "lotecc5rs",
        "transient-storm",
        "lotecc5rs acc 4578 clean 938 parity 8 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3556 rpr 47 rpw 29 ucw 0",
        0xa3a97a800a608014,
    ),
    (
        1,
        "chipkill18",
        "transient-storm",
        "chipkill18 acc 4577 clean 980 parity 5 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3544 rpr 37 rpw 11 ucw 0",
        0x5f85ff8140df2bde,
    ),
    (
        1,
        "chipkill36",
        "transient-storm",
        "chipkill36 acc 4580 clean 930 parity 14 degraded 6 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3526 rpr 74 rpw 30 ucw 0",
        0x8adac4c98238c678,
    ),
    (
        1,
        "chipkill-double",
        "transient-storm",
        "chipkill-double acc 4578 clean 960 parity 7 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3554 rpr 37 rpw 20 ucw 0",
        0x789fcffa238b61ad,
    ),
    (
        1,
        "raim",
        "transient-storm",
        "raim acc 4577 clean 973 parity 5 degraded 2 unc 1 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3536 rpr 43 rpw 17 ucw 0",
        0x20b9e38f27000fb7,
    ),
    (
        1,
        "raimparity",
        "transient-storm",
        "raimparity acc 4578 clean 961 parity 4 degraded 1 unc 1 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3543 rpr 51 rpw 17 ucw 0",
        0xbdfb3138ff261717,
    ),
    (
        5,
        "lotecc5",
        "transient-storm",
        "lotecc5 acc 4575 clean 947 parity 4 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3589 rpr 25 rpw 10 ucw 0",
        0x5b8634e05918ff86,
    ),
    (
        5,
        "lotecc5rs",
        "transient-storm",
        "lotecc5rs acc 4579 clean 945 parity 9 degraded 4 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3534 rpr 56 rpw 31 ucw 0",
        0x7b4505a867294253,
    ),
    (
        5,
        "chipkill18",
        "transient-storm",
        "chipkill18 acc 4578 clean 992 parity 5 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3547 rpr 24 rpw 10 ucw 0",
        0x0570d411fc84f918,
    ),
    (
        5,
        "chipkill36",
        "transient-storm",
        "chipkill36 acc 4578 clean 965 parity 8 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3558 rpr 32 rpw 15 ucw 0",
        0x74411d203fcc4975,
    ),
    (
        5,
        "chipkill-double",
        "transient-storm",
        "chipkill-double acc 4577 clean 953 parity 5 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3583 rpr 23 rpw 13 ucw 0",
        0x580fe18140905785,
    ),
    (
        5,
        "raim",
        "transient-storm",
        "raim acc 4577 clean 999 parity 2 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3559 rpr 13 rpw 4 ucw 0",
        0xd7cee9d3a74ddffd,
    ),
    (
        5,
        "raimparity",
        "transient-storm",
        "raimparity acc 4578 clean 975 parity 7 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3540 rpr 40 rpw 16 ucw 0",
        0xabb588ea6674708a,
    ),
    (
        1,
        "lotecc5",
        "parity-region-fault",
        "lotecc5 acc 4288 clean 776 parity 0 degraded 0 unc 3 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3487 rpr 16 rpw 6 ucw 0",
        0x40daa3611c05ef9f,
    ),
    (
        1,
        "lotecc5rs",
        "parity-region-fault",
        "lotecc5rs acc 4288 clean 789 parity 0 degraded 0 unc 3 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3478 rpr 9 rpw 9 ucw 0",
        0x4c54610b34afd68a,
    ),
    (
        1,
        "chipkill18",
        "parity-region-fault",
        "chipkill18 acc 4288 clean 793 parity 0 degraded 0 unc 3 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3471 rpr 11 rpw 10 ucw 0",
        0xfe6423ce6b1434b4,
    ),
    (
        1,
        "chipkill36",
        "parity-region-fault",
        "chipkill36 acc 4288 clean 775 parity 0 degraded 0 unc 4 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3481 rpr 18 rpw 10 ucw 0",
        0x6c813438ce5d0b77,
    ),
    (
        1,
        "chipkill-double",
        "parity-region-fault",
        "chipkill-double acc 4288 clean 814 parity 0 degraded 0 unc 3 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3445 rpr 12 rpw 14 ucw 0",
        0x4d9d02165fae2522,
    ),
    (
        1,
        "raim",
        "parity-region-fault",
        "raim acc 4288 clean 810 parity 0 degraded 0 unc 4 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3444 rpr 16 rpw 14 ucw 0",
        0x721828642ff7811a,
    ),
    (
        1,
        "raimparity",
        "parity-region-fault",
        "raimparity acc 4288 clean 761 parity 0 degraded 0 unc 4 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3491 rpr 20 rpw 12 ucw 0",
        0xd38e97c83de07ec8,
    ),
    (
        5,
        "lotecc5",
        "parity-region-fault",
        "lotecc5 acc 4288 clean 792 parity 0 degraded 0 unc 2 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3478 rpr 11 rpw 5 ucw 0",
        0x4f72b5a5037daf3a,
    ),
    (
        5,
        "lotecc5rs",
        "parity-region-fault",
        "lotecc5rs acc 4288 clean 782 parity 0 degraded 0 unc 3 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3481 rpr 14 rpw 8 ucw 0",
        0x388316dac9b7559d,
    ),
    (
        5,
        "chipkill18",
        "parity-region-fault",
        "chipkill18 acc 4288 clean 768 parity 0 degraded 0 unc 4 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3485 rpr 26 rpw 5 ucw 0",
        0xf4ed7743eb08c09b,
    ),
    (
        5,
        "chipkill36",
        "parity-region-fault",
        "chipkill36 acc 4288 clean 786 parity 0 degraded 0 unc 3 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3478 rpr 16 rpw 5 ucw 0",
        0x095c36163277f4d1,
    ),
    (
        5,
        "chipkill-double",
        "parity-region-fault",
        "chipkill-double acc 4288 clean 805 parity 0 degraded 0 unc 2 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3473 rpr 4 rpw 4 ucw 0",
        0xb5db44ee40f663c4,
    ),
    (
        5,
        "raim",
        "parity-region-fault",
        "raim acc 4288 clean 814 parity 0 degraded 0 unc 2 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3455 rpr 14 rpw 3 ucw 0",
        0xf3ed179d73ede2ef,
    ),
    (
        5,
        "raimparity",
        "parity-region-fault",
        "raimparity acc 4288 clean 847 parity 0 degraded 0 unc 2 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3427 rpr 6 rpw 6 ucw 0",
        0x541089adf45bc9e8,
    ),
    (
        1,
        "lotecc5",
        "write-heavy-degraded",
        "lotecc5 acc 4572 clean 497 parity 0 degraded 309 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3766 rpr 0 rpw 0 ucw 0",
        0xe3f45bd41eb0e418,
    ),
    (
        1,
        "lotecc5rs",
        "write-heavy-degraded",
        "lotecc5rs acc 4572 clean 491 parity 0 degraded 307 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3774 rpr 0 rpw 0 ucw 0",
        0xde712d16a3e38c6e,
    ),
    (
        1,
        "chipkill18",
        "write-heavy-degraded",
        "chipkill18 acc 4572 clean 805 parity 0 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3767 rpr 0 rpw 0 ucw 0",
        0x646de9f29070a6a9,
    ),
    (
        1,
        "chipkill36",
        "write-heavy-degraded",
        "chipkill36 acc 4572 clean 499 parity 0 degraded 294 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3779 rpr 0 rpw 0 ucw 0",
        0x7be6d306c774d4cd,
    ),
    (
        1,
        "chipkill-double",
        "write-heavy-degraded",
        "chipkill-double acc 4572 clean 484 parity 0 degraded 320 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3768 rpr 0 rpw 0 ucw 0",
        0x63b7a67c2717bc1e,
    ),
    (
        1,
        "raim",
        "write-heavy-degraded",
        "raim acc 4572 clean 807 parity 0 degraded 0 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3765 rpr 0 rpw 0 ucw 0",
        0xab11c2b1937e1539,
    ),
    (
        1,
        "raimparity",
        "write-heavy-degraded",
        "raimparity acc 4572 clean 509 parity 0 degraded 292 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3771 rpr 0 rpw 0 ucw 0",
        0x7d1c3d1d52f0c5af,
    ),
    (
        5,
        "lotecc5",
        "write-heavy-degraded",
        "lotecc5 acc 4572 clean 520 parity 0 degraded 292 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3760 rpr 0 rpw 0 ucw 0",
        0x69730a07b3b5f72d,
    ),
    (
        5,
        "lotecc5rs",
        "write-heavy-degraded",
        "lotecc5rs acc 4572 clean 485 parity 0 degraded 317 unc 1 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3769 rpr 0 rpw 0 ucw 0",
        0x9e2e959a02930ed2,
    ),
    (
        5,
        "chipkill18",
        "write-heavy-degraded",
        "chipkill18 acc 4572 clean 491 parity 0 degraded 302 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3779 rpr 0 rpw 0 ucw 0",
        0xd0dd4201c7eb9e97,
    ),
    (
        5,
        "chipkill36",
        "write-heavy-degraded",
        "chipkill36 acc 4572 clean 479 parity 0 degraded 319 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3774 rpr 0 rpw 0 ucw 0",
        0x9a76b732d917e77f,
    ),
    (
        5,
        "chipkill-double",
        "write-heavy-degraded",
        "chipkill-double acc 4572 clean 480 parity 0 degraded 323 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3769 rpr 0 rpw 0 ucw 0",
        0x473d88733b396a4c,
    ),
    (
        5,
        "raim",
        "write-heavy-degraded",
        "raim acc 4572 clean 478 parity 0 degraded 313 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3781 rpr 0 rpw 0 ucw 0",
        0xb3e78d2beecf9c8f,
    ),
    (
        5,
        "raimparity",
        "write-heavy-degraded",
        "raimparity acc 4572 clean 484 parity 0 degraded 319 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 0 writes 3769 rpr 0 rpw 0 ucw 0",
        0x42a04258e21a9e46,
    ),
];

#[test]
fn transient_storm_pins() {
    let pins: Vec<_> = SCENARIO_PINS
        .iter()
        .copied()
        .filter(|p| p.2 == "transient-storm")
        .collect();
    check(&pins);
}

#[test]
fn parity_region_fault_pins() {
    let pins: Vec<_> = SCENARIO_PINS
        .iter()
        .copied()
        .filter(|p| p.2 == "parity-region-fault")
        .collect();
    check(&pins);
}

#[test]
fn write_heavy_degraded_pins() {
    let pins: Vec<_> = SCENARIO_PINS
        .iter()
        .copied()
        .filter(|p| p.2 == "write-heavy-degraded")
        .collect();
    check(&pins);
}

/// The four jobs known to fail the zero-SDC gate, the open soak failures
/// listed in ROADMAP.md. These pins record what the program does today so
/// a refactor cannot change it unnoticed. They are NOT a statement that
/// these DIRTY verdicts are correct: each is an open defect or an
/// unclassified limit of its code, and the fix for one is expected to
/// update its pin on purpose.
#[test]
fn known_failing_jobs_are_pinned_as_they_are() {
    check(&[
        (
            214,
            "chipkill18",
            "parity-region-fault",
            "chipkill18 acc 4288 clean 798 parity 0 degraded 0 unc 3 aliased 0 sdc 1 panics 0 mono 0 audit 0 writes 3466 rpr 10 rpw 10 ucw 0",
            0xb6e2ba268e093e60,
        ),
        (
            324,
            "raim",
            "transient-storm",
            "raim acc 4581 clean 954 parity 7 degraded 7 unc 0 aliased 0 sdc 0 panics 0 mono 0 audit 3 writes 3524 rpr 54 rpw 35 ucw 0",
            0xf6bd05dfee6f95ad,
        ),
        (
            345,
            "lotecc5",
            "transient-storm",
            "lotecc5 acc 4578 clean 961 parity 5 degraded 0 unc 1 aliased 0 sdc 0 panics 0 mono 0 audit 1 writes 3555 rpr 35 rpw 21 ucw 0",
            0x74b8d5e5334e6a2b,
        ),
        (
            1483562807,
            "lotecc5",
            "transient-storm",
            "lotecc5 acc 4578 clean 959 parity 7 degraded 1 unc 0 aliased 1 sdc 0 panics 0 mono 0 audit 3 writes 3538 rpr 49 rpw 23 ucw 0",
            0x06e8b92d4d3a82ed,
        ),
    ]);
}
