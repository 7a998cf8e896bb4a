//! `eccparity-push-v1`: the daemon-to-operator push channel behind the
//! `subscribe` op.
//!
//! Shard workers detect **posture transitions** while applying events: a
//! node's [`Tier`] (classification of [`NodeHealth::risk_ppm`]) moving
//! between `nominal`, `watch`, and `at_risk`. Each transition renders as
//! one `eccparity-push-v1` line and is fanned out through the
//! [`PushHub`] to every subscribed connection.
//!
//! **Determinism.** A transition line is a pure function of the node's
//! state at the moment it crosses a tier boundary (`node`, the tier
//! pair, `risk_ppm`, and the node's cumulative `events` count), and a
//! node's events are applied in arrival order by its owning shard — so
//! the *per-node subsequence* of push lines is byte-deterministic for a
//! given per-node event order. Interleaving *across*
//! nodes follows shard scheduling and is not specified. A daemon resumed
//! from a checkpoint re-derives tiers from restored state and emits only
//! transitions caused by post-resume events.
//!
//! **Flow control.** Every subscriber owns a bounded queue. A push that
//! finds a subscriber's queue full is dropped *for that subscriber only*
//! and counted in `service.push.shed` — a slow operator terminal can
//! never apply backpressure to shard workers or other subscribers. The
//! socket front-end applies the same shed accounting at its
//! write-outbox watermark (see `docs/OPERATIONS.md` § High
//! connection-count deployments).
//!
//! [`NodeHealth::risk_ppm`]: crate::state::NodeHealth::risk_ppm

use crate::state::AT_RISK_PPM;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

/// Schema stamp carried by every push line.
pub const PUSH_SCHEMA: &str = "eccparity-push-v1";

/// Default bound of one subscriber's push queue, in lines.
pub const DEFAULT_PUSH_QUEUE: usize = 1024;

/// Posture classification of one node, derived from its risk score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// No recorded faults, retirements, or counter pressure.
    Nominal,
    /// Some risk accrued, below the fleet's at-risk threshold.
    Watch,
    /// [`NodeHealth::risk_ppm`] ≥ [`AT_RISK_PPM`] — the node counts
    /// toward the fleet's `at_risk_nodes`.
    ///
    /// [`NodeHealth::risk_ppm`]: crate::state::NodeHealth::risk_ppm
    AtRisk,
}

impl Tier {
    /// Classify a risk score.
    pub fn of_risk(risk_ppm: u64) -> Tier {
        if risk_ppm >= AT_RISK_PPM {
            Tier::AtRisk
        } else if risk_ppm > 0 {
            Tier::Watch
        } else {
            Tier::Nominal
        }
    }

    /// Wire name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Nominal => "nominal",
            Tier::Watch => "watch",
            Tier::AtRisk => "at_risk",
        }
    }
}

/// One node crossing a tier boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The node whose posture changed.
    pub node: u64,
    /// Tier before the event was applied.
    pub from: Tier,
    /// Tier after the event was applied.
    pub to: Tier,
    /// Risk score after the event was applied.
    pub risk_ppm: u64,
    /// The node's cumulative ingested-event count at the transition —
    /// the deterministic per-node sequence stamp.
    pub events: u64,
}

/// Render one transition as an `eccparity-push-v1` line (no newline).
pub fn render_push(t: &Transition) -> String {
    format!(
        "{{\"schema\":\"{PUSH_SCHEMA}\",\"kind\":\"push\",\"node\":{},\"from\":\"{}\",\"to\":\"{}\",\"risk_ppm\":{},\"events\":{}}}",
        t.node,
        t.from.name(),
        t.to.name(),
        t.risk_ppm,
        t.events
    )
}

/// How a subscriber's io loop learns a push is waiting in its queue.
/// Threaded-mode subscribers block on the queue itself and need none.
type WakeFn = Arc<dyn Fn() + Send + Sync>;

struct Sub {
    id: u64,
    tx: SyncSender<Arc<str>>,
    wake: Option<WakeFn>,
}

/// Fan-out registry connecting shard workers (publishers) to subscribed
/// operator connections. Cheap when idle: `publish` is only invoked by
/// workers after checking [`PushHub::has_subscribers`], so the unsubscribed
/// steady state costs one relaxed atomic load per applied batch.
pub struct PushHub {
    subs: Mutex<Vec<Sub>>,
    active: AtomicUsize,
    next_id: AtomicU64,
    queue_depth: usize,
    shed: AtomicU64,
    published: AtomicU64,
}

impl PushHub {
    /// A hub whose subscribers each buffer at most `queue_depth` lines.
    pub fn new(queue_depth: usize) -> PushHub {
        PushHub {
            subs: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            queue_depth: queue_depth.max(1),
            shed: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    /// Are any subscribers registered right now?
    pub fn has_subscribers(&self) -> bool {
        self.active.load(Ordering::Relaxed) > 0
    }

    /// Current subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Total push lines dropped on full subscriber queues or full write
    /// outboxes (`service.push.shed`).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Total transitions published to at least one subscriber.
    pub fn published_total(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Register a subscriber. `wake` (if any) is invoked after a line is
    /// queued, so an event loop parked in `poll` drains promptly. Returns
    /// the subscription id (for [`PushHub::unsubscribe`]) and the queue's
    /// receiving end.
    pub fn subscribe(
        &self,
        wake: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> (u64, Receiver<Arc<str>>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(self.queue_depth);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut subs = self.subs.lock().expect("push hub lock");
        subs.push(Sub { id, tx, wake });
        self.active.store(subs.len(), Ordering::Relaxed);
        obs::counter!("service.push.subscribes").inc();
        (id, rx)
    }

    /// Drop a subscriber (its connection closed or errored).
    pub fn unsubscribe(&self, id: u64) {
        let mut subs = self.subs.lock().expect("push hub lock");
        subs.retain(|s| s.id != id);
        self.active.store(subs.len(), Ordering::Relaxed);
    }

    /// Account outbox-level push drops (the evented front-end sheds at
    /// its write watermark *after* dequeueing) in the same counter.
    pub fn note_shed(&self, lines: u64) {
        if lines > 0 {
            self.shed.fetch_add(lines, Ordering::Relaxed);
            obs::counter!("service.push.shed").add(lines);
        }
    }

    /// Render and fan out one transition. Full subscriber queues shed
    /// (counted); disconnected subscribers are pruned.
    pub fn publish(&self, t: &Transition) {
        let line: Arc<str> = Arc::from(render_push(t).as_str());
        let mut dead: Vec<u64> = Vec::new();
        {
            let subs = self.subs.lock().expect("push hub lock");
            if subs.is_empty() {
                return;
            }
            self.published.fetch_add(1, Ordering::Relaxed);
            for sub in subs.iter() {
                match sub.tx.try_send(Arc::clone(&line)) {
                    Ok(()) => {
                        if let Some(wake) = &sub.wake {
                            wake();
                        }
                    }
                    Err(TrySendError::Full(_)) => {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        obs::counter!("service.push.shed").inc();
                    }
                    Err(TrySendError::Disconnected(_)) => dead.push(sub.id),
                }
            }
        }
        for id in dead {
            self.unsubscribe(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(node: u64, from: Tier, to: Tier) -> Transition {
        Transition {
            node,
            from,
            to,
            risk_ppm: 510_000,
            events: 42,
        }
    }

    #[test]
    fn tiers_classify_the_risk_scale() {
        assert_eq!(Tier::of_risk(0), Tier::Nominal);
        assert_eq!(Tier::of_risk(1), Tier::Watch);
        assert_eq!(Tier::of_risk(AT_RISK_PPM - 1), Tier::Watch);
        assert_eq!(Tier::of_risk(AT_RISK_PPM), Tier::AtRisk);
        assert_eq!(Tier::of_risk(1_000_000), Tier::AtRisk);
    }

    #[test]
    fn push_lines_are_valid_json_with_the_schema_stamp() {
        let line = render_push(&t(7, Tier::Watch, Tier::AtRisk));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["schema"].as_str(), Some(PUSH_SCHEMA));
        assert_eq!(v["kind"].as_str(), Some("push"));
        assert_eq!(v["node"].as_u64(), Some(7));
        assert_eq!(v["from"].as_str(), Some("watch"));
        assert_eq!(v["to"].as_str(), Some("at_risk"));
        assert_eq!(v["risk_ppm"].as_u64(), Some(510_000));
        assert_eq!(v["events"].as_u64(), Some(42));
    }

    #[test]
    fn fanout_delivers_to_every_subscriber_and_sheds_the_slow_one() {
        let hub = PushHub::new(2);
        assert!(!hub.has_subscribers());
        let (_ida, rxa) = hub.subscribe(None);
        let (_idb, rxb) = hub.subscribe(None);
        assert_eq!(hub.subscriber_count(), 2);

        for i in 0..5 {
            hub.publish(&t(i, Tier::Nominal, Tier::Watch));
            // Fast subscriber keeps up; slow subscriber never drains.
            let got = rxa.try_recv().unwrap();
            assert!(got.contains(&format!("\"node\":{i}")), "{got}");
        }
        // Slow subscriber kept the first 2 (queue bound), shed 3.
        assert_eq!(rxb.try_iter().count(), 2);
        assert_eq!(hub.shed_total(), 3);
        assert_eq!(hub.published_total(), 5);
    }

    #[test]
    fn disconnected_subscribers_are_pruned_and_wakes_fire() {
        let hub = PushHub::new(8);
        let woke = Arc::new(AtomicU64::new(0));
        let w2 = Arc::clone(&woke);
        let (_id, rx) = hub.subscribe(Some(Arc::new(move || {
            w2.fetch_add(1, Ordering::Relaxed);
        })));
        let (_id2, rx2) = hub.subscribe(None);
        hub.publish(&t(1, Tier::Nominal, Tier::Watch));
        assert_eq!(woke.load(Ordering::Relaxed), 1);
        drop(rx);
        // Publishing into the dropped receiver prunes it.
        hub.publish(&t(2, Tier::Nominal, Tier::Watch));
        assert_eq!(hub.subscriber_count(), 1);
        assert_eq!(rx2.try_iter().count(), 2);
    }

    #[test]
    fn unsubscribe_makes_the_hub_idle_again() {
        let hub = PushHub::new(8);
        let (id, _rx) = hub.subscribe(None);
        assert!(hub.has_subscribers());
        hub.unsubscribe(id);
        assert!(!hub.has_subscribers());
    }
}
