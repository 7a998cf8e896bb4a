//! Model test for `HealthTable`, the paper's §III-C bank-pair state.
//!
//! A reference model of the state machine, written out on its own: a
//! detected error counts against its bank pair and retires its page
//! while the counter stays below the threshold; the error that brings the
//! counter to the threshold migrates the pair instead; a migrated pair
//! counts nothing more; a whole-bank diagnosis (`mark_faulty`) migrates a
//! pair at once and freezes its counter at the threshold. Generated
//! `record_error`/`mark_faulty` streams drive the model and the table
//! side by side, and after every step the table's counters, faulty flags,
//! retired pages and the sums the daemon's risk score and fleet totals
//! are built on must equal the model's; counters never fall.

mod common;

use common::Mix;
use ecc_parity::health::{HealthAction, HealthTable, PairId};
use std::collections::HashSet;

/// The reference model.
struct Model {
    threshold: u8,
    pairs_per_channel: usize,
    counters: Vec<u8>,
    faulty: Vec<bool>,
    retired: HashSet<(usize, usize, u32)>,
}

impl Model {
    fn new(channels: usize, banks: usize, threshold: u8) -> Model {
        let pairs = channels * banks / 2;
        Model {
            threshold,
            pairs_per_channel: banks / 2,
            counters: vec![0; pairs],
            faulty: vec![false; pairs],
            retired: HashSet::new(),
        }
    }

    fn pair(&self, channel: usize, bank: usize) -> usize {
        channel * self.pairs_per_channel + bank / 2
    }

    fn record_error(&mut self, channel: usize, bank: usize, row: u32) -> HealthAction {
        let p = self.pair(channel, bank);
        if self.faulty[p] {
            return HealthAction::AlreadyFaulty;
        }
        self.counters[p] += 1;
        if self.counters[p] == self.threshold {
            self.faulty[p] = true;
            HealthAction::MigratePair
        } else {
            self.retired.insert((channel, bank, row));
            HealthAction::RetirePage
        }
    }

    fn mark_faulty(&mut self, channel: usize, bank: usize) {
        let p = self.pair(channel, bank);
        self.faulty[p] = true;
        self.counters[p] = self.threshold;
    }

    fn faulty_pair_count(&self) -> usize {
        self.faulty.iter().filter(|&&f| f).count()
    }

    fn active_counter_sum(&self) -> u64 {
        let live = self.counters.iter().zip(&self.faulty).filter(|(_, &f)| !f);
        live.map(|(&c, _)| u64::from(c)).sum()
    }
}

fn run(seed: u64, channels: usize, banks: usize, threshold: u8, steps: usize) {
    let mut rng = Mix(seed);
    let mut table = HealthTable::new(channels, banks, threshold);
    let mut model = Model::new(channels, banks, threshold);
    let mut actions = [0u64; 3];
    for step in 0..steps {
        let channel = rng.below(channels as u64) as usize;
        let bank = rng.below(banks as u64) as usize;
        let row = rng.below(6) as u32;
        let before = table.counters().to_vec();
        if rng.below(40) == 0 {
            table.mark_faulty(table.pair_of(channel, bank));
            model.mark_faulty(channel, bank);
        } else {
            let got = table.record_error(channel, bank);
            let want = model.record_error(channel, bank, row);
            assert_eq!(got, want, "seed {seed} step {step}");
            actions[want as usize] += 1;
            if got == HealthAction::RetirePage {
                table.retire_page(channel, bank, row);
            }
        }
        let at = format!("seed {seed} step {step}");
        assert!(
            before.iter().zip(table.counters()).all(|(b, a)| b <= a),
            "{at}: a counter fell"
        );
        assert_eq!(table.counters(), &model.counters[..], "{at}");
        assert_eq!(table.faulty_flags(), &model.faulty[..], "{at}");
        assert_eq!(table.retired(), &model.retired, "{at}");
        assert_eq!(table.faulty_pair_count(), model.faulty_pair_count(), "{at}");
        assert_eq!(
            table.active_counter_sum(),
            model.active_counter_sum(),
            "{at}"
        );
        assert_eq!(table.retired_count(), model.retired.len(), "{at}");
        let p = PairId {
            channel,
            pair: bank / 2,
        };
        assert_eq!(table.counter(p), model.counters[model.pair(channel, bank)]);
        assert_eq!(
            table.is_faulty(channel, bank),
            model.faulty[model.pair(channel, bank)]
        );
    }
    let [retire, migrate, already] = actions;
    assert!(
        migrate > 0 && already > 0 && (threshold == 1 || retire > 0),
        "seed {seed}: every transition is exercised: {actions:?}"
    );
}

#[test]
fn table_matches_the_model_at_thresholds_one_to_five() {
    for threshold in 1..=5u8 {
        for seed in 0..6 {
            run(seed + 100 * u64::from(threshold), 2, 4, threshold, 2_000);
        }
    }
}

#[test]
fn table_matches_the_model_at_the_daemon_geometry() {
    for seed in 0..3 {
        run(seed, 8, 16, 4, 6_000);
    }
}
