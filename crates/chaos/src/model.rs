//! The faulty inference backend.

use crate::plan::FaultPlan;
use tm_reid::{
    AppearanceModel, Attempt, AttemptClass, BackendFault, BackendReply, Feature, InferenceBackend,
    SplitBackend,
};
use tm_types::TrackBox;

/// An [`InferenceBackend`] that runs the real appearance model but fails
/// according to a [`FaultPlan`].
///
/// Decision order per attempt: hard-down epoch → unavailable; else draw a
/// latency spike; then transient failure; then corruption; otherwise the
/// clean feature. With [`FaultPlan::none`] every reply is
/// `BackendReply::ok(model feature)` with `extra_ms == 0.0`, making the
/// wrapper bit-for-bit transparent.
#[derive(Debug)]
pub struct FaultyModel<'a> {
    model: &'a AppearanceModel,
    plan: FaultPlan,
}

impl<'a> FaultyModel<'a> {
    /// Wraps `model` under `plan`.
    pub fn new(model: &'a AppearanceModel, plan: FaultPlan) -> Self {
        Self { model, plan }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl InferenceBackend for FaultyModel<'_> {
    fn try_observe(&self, tb: &TrackBox, at: &Attempt) -> BackendReply {
        // Single source of truth: the classification below IS the fault
        // decision; only the Clean arm touches the model. Keeping the two
        // trait impls on one path is what makes the fleet's batching lane
        // (which answers Clean attempts from a shared cache) provably
        // bit-identical to this solo backend.
        match self.classify(at) {
            AttemptClass::Clean { extra_ms } => BackendReply {
                outcome: Ok(self.model.observe_track_box(tb).into()),
                extra_ms,
            },
            AttemptClass::Corrupt { feature, extra_ms } => BackendReply {
                outcome: Ok(feature.into()),
                extra_ms,
            },
            AttemptClass::Fault { fault, extra_ms } => BackendReply::fault(fault, extra_ms),
        }
    }

    fn available(&self, epoch: u64) -> bool {
        !self.plan.is_hard_down(epoch)
    }
}

impl SplitBackend for FaultyModel<'_> {
    fn classify(&self, at: &Attempt) -> AttemptClass {
        if self.plan.is_hard_down(at.epoch) {
            return AttemptClass::Fault {
                fault: BackendFault::Unavailable,
                extra_ms: self.plan.fault_latency_ms,
            };
        }
        let spike = if self.plan.spikes(at) {
            self.plan.latency_spike_ms
        } else {
            0.0
        };
        if self.plan.fails_transiently(at) {
            return AttemptClass::Fault {
                fault: BackendFault::Transient("injected transient inference failure"),
                extra_ms: spike + self.plan.fault_latency_ms,
            };
        }
        if self.plan.corrupts(at) {
            return AttemptClass::Corrupt {
                feature: Feature::from_raw(vec![f64::NAN, f64::NAN]),
                extra_ms: spike,
            };
        }
        AttemptClass::Clean { extra_ms: spike }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_reid::{AppearanceConfig, BoxKey};
    use tm_types::{BBox, FrameIdx, GtObjectId, TrackId};

    fn tb(frame: u64, actor: u64) -> TrackBox {
        TrackBox::new(FrameIdx(frame), BBox::new(0.0, 0.0, 10.0, 10.0))
            .with_provenance(GtObjectId(actor))
    }

    fn at(epoch: u64, attempt: u32, t: u64, f: u64) -> Attempt {
        Attempt {
            epoch,
            attempt,
            key: BoxKey::new(TrackId(t), FrameIdx(f)),
        }
    }

    #[test]
    fn zero_plan_is_transparent() {
        let m = AppearanceModel::new(AppearanceConfig::default());
        let faulty = FaultyModel::new(&m, FaultPlan::none());
        for i in 0..50u64 {
            let b = tb(i, i % 5);
            let reply = faulty.try_observe(&b, &at(i % 3, 0, i + 1, i));
            assert_eq!(reply.extra_ms.to_bits(), 0.0f64.to_bits());
            let f = reply.outcome.expect("zero plan never fails");
            assert_eq!(*f, m.observe_track_box(&b), "box {i}");
            assert!(faulty.available(i));
        }
    }

    #[test]
    fn hard_down_epochs_refuse_work() {
        let m = AppearanceModel::new(AppearanceConfig::default());
        let faulty = FaultyModel::new(&m, FaultPlan::none().with_hard_down(2, 4));
        assert!(faulty.available(1));
        assert!(!faulty.available(2));
        assert!(!faulty.available(3));
        assert!(faulty.available(4));
        let reply = faulty.try_observe(&tb(0, 1), &at(3, 0, 1, 0));
        assert_eq!(reply.outcome.unwrap_err(), BackendFault::Unavailable);
        // Same box, healthy epoch: fine.
        let reply = faulty.try_observe(&tb(0, 1), &at(4, 0, 1, 0));
        assert!(reply.outcome.is_ok());
    }

    #[test]
    fn corrupted_replies_are_non_finite() {
        let m = AppearanceModel::new(AppearanceConfig::default());
        let mut plan = FaultPlan::none();
        plan.corrupt_rate = 1.0;
        let faulty = FaultyModel::new(&m, plan);
        let f = faulty
            .try_observe(&tb(0, 1), &at(0, 0, 1, 0))
            .outcome
            .expect("corruption is an Ok reply");
        assert!(!f.is_finite());
    }

    #[test]
    fn classify_agrees_with_try_observe_on_every_branch() {
        let m = AppearanceModel::new(AppearanceConfig::default());
        let mut plan = FaultPlan::flaky(11);
        // Rates high enough that 400 attempts exercise every branch.
        plan.transient_failure_rate = 0.25;
        plan.corrupt_rate = 0.25;
        plan.latency_spike_rate = 0.25;
        let faulty = FaultyModel::new(&m, plan.with_hard_down(3, 4));
        let mut seen = [false; 3];
        for i in 0..400u64 {
            let a = at(i % 6, (i % 4) as u32, i + 1, i);
            let b = tb(i, i % 5);
            let reply = faulty.try_observe(&b, &a);
            match faulty.classify(&a) {
                AttemptClass::Clean { extra_ms } => {
                    seen[0] = true;
                    assert_eq!(reply.extra_ms.to_bits(), extra_ms.to_bits());
                    assert_eq!(*reply.outcome.unwrap(), m.observe_track_box(&b));
                }
                AttemptClass::Corrupt { feature, extra_ms } => {
                    seen[1] = true;
                    assert_eq!(reply.extra_ms.to_bits(), extra_ms.to_bits());
                    let f = reply.outcome.unwrap();
                    assert!(!f.is_finite());
                    assert_eq!(f.as_slice().len(), feature.as_slice().len());
                }
                AttemptClass::Fault { fault, extra_ms } => {
                    seen[2] = true;
                    assert_eq!(reply.extra_ms.to_bits(), extra_ms.to_bits());
                    assert_eq!(reply.outcome.unwrap_err(), fault);
                }
            }
        }
        assert_eq!(seen, [true; 3], "all attempt classes exercised");
    }

    #[test]
    fn replays_are_identical() {
        let m = AppearanceModel::new(AppearanceConfig::default());
        let faulty = FaultyModel::new(&m, FaultPlan::flaky(7));
        for i in 0..200u64 {
            let a = at(i % 5, (i % 4) as u32, i, i * 2 + 1);
            let b = tb(i * 2 + 1, i % 3);
            let r1 = faulty.try_observe(&b, &a);
            let r2 = faulty.try_observe(&b, &a);
            assert_eq!(r1.extra_ms.to_bits(), r2.extra_ms.to_bits());
            match (r1.outcome, r2.outcome) {
                (Ok(f1), Ok(f2)) => assert_eq!(f1.as_slice().len(), f2.as_slice().len()),
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (a, b) => panic!("replay diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
