//! The latent appearance world and simulated feature extraction.

use crate::feature::Feature;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use tm_types::{Detection, FrameIdx, GtObjectId};

/// Parameters of the simulated appearance world and ReID model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppearanceConfig {
    /// Feature dimensionality (OSNet uses 512; 32 preserves the geometry
    /// at a fraction of the cost).
    pub dim: usize,
    /// Number of appearance archetypes ("red sedan", "person in black
    /// coat", ...). Distinct actors sharing an archetype are hard
    /// negatives.
    pub n_archetypes: u64,
    /// How far an individual's latent deviates from its archetype
    /// (0 = clones, larger = easier to tell apart). Applied before
    /// re-normalization.
    pub individuality: f64,
    /// Observation-noise magnitude for a fully visible crop.
    pub noise_base: f64,
    /// Per-observation noise spread: each (actor, frame) crop draws an
    /// extra noise magnitude uniformly from `[0, noise_range]`, modelling
    /// pose/blur/crop-quality variation between frames. Larger values make
    /// single BBox-pair distances less reliable estimates of the track-pair
    /// score — the regime in which sampling algorithms must average.
    pub noise_range: f64,
    /// Additional noise magnitude at zero visibility (scales linearly
    /// with `1 - visibility`).
    pub noise_occlusion: f64,
    /// Seed of the appearance world (independent of motion seeds).
    pub seed: u64,
}

impl Default for AppearanceConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            n_archetypes: 24,
            individuality: 0.6,
            noise_base: 0.15,
            noise_range: 0.3,
            noise_occlusion: 0.15,
            seed: 0xA99E,
        }
    }
}

/// The simulated ReID model.
///
/// All outputs are **pure functions** of the configuration and the query:
/// extracting the feature of the same observation twice yields the same
/// vector, which is what makes the paper's feature-reuse optimization
/// meaningful (cache hits are exact).
#[derive(Debug, Clone, PartialEq)]
pub struct AppearanceModel {
    config: AppearanceConfig,
    latents: LatentMemo,
}

/// Each actor's latent, computed on the first observation of the actor and
/// shared by every later one: a latent depends on the configuration and the
/// actor alone, so the memo changes no bit of any feature. It holds one
/// entry per actor of the simulated world, takes no part in equality, and
/// a clone of the model starts it empty.
#[derive(Default)]
struct LatentMemo(RwLock<HashMap<GtObjectId, Arc<Feature>>>);

impl LatentMemo {
    fn get_or_compute(&self, actor: GtObjectId, compute: impl FnOnce() -> Feature) -> Arc<Feature> {
        let read = self.0.read().expect("latent memo poisoned");
        if let Some(latent) = read.get(&actor) {
            return Arc::clone(latent);
        }
        drop(read);
        let latent = Arc::new(compute());
        let mut write = self.0.write().expect("latent memo poisoned");
        Arc::clone(write.entry(actor).or_insert(latent))
    }
}

impl Clone for LatentMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for LatentMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for LatentMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LatentMemo")
    }
}

impl AppearanceModel {
    /// Creates the model.
    pub fn new(config: AppearanceConfig) -> Self {
        Self {
            config,
            latents: LatentMemo::default(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &AppearanceConfig {
        &self.config
    }

    /// A deterministic unit vector derived from `seed`.
    fn unit_vec(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<f64> = (0..self.config.dim)
            .map(|_| StandardNormal.sample(&mut rng))
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        v.into_iter().map(|x| x / norm).collect()
    }

    fn mix(&self, a: u64, b: u64, c: u64) -> u64 {
        // SplitMix64-style avalanche over the three inputs + world seed.
        let mut z = self
            .config
            .seed
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The latent (noise-free) appearance of an actor.
    pub fn latent(&self, actor: GtObjectId) -> Feature {
        Feature::clone(&self.shared_latent(actor))
    }

    fn shared_latent(&self, actor: GtObjectId) -> Arc<Feature> {
        self.latents
            .get_or_compute(actor, || self.compute_latent(actor))
    }

    fn compute_latent(&self, actor: GtObjectId) -> Feature {
        let archetype_id = self.mix(actor.get(), 0, 1) % self.config.n_archetypes.max(1);
        let archetype = self.unit_vec(self.mix(archetype_id, 2, 3));
        let individual = self.unit_vec(self.mix(actor.get(), 4, 5));
        let ind = self.config.individuality;
        let mixed: Vec<f64> = archetype
            .iter()
            .zip(&individual)
            .map(|(a, i)| a + ind * i)
            .collect();
        Feature::normalized(mixed)
    }

    /// The archetype index of an actor (exposed for diagnostics/tests).
    pub fn archetype_of(&self, actor: GtObjectId) -> u64 {
        self.mix(actor.get(), 0, 1) % self.config.n_archetypes.max(1)
    }

    /// Runs "ReID inference" on an observation of `actor` at `frame` with
    /// the given visibility, returning a unit feature.
    ///
    /// Noise magnitude is `noise_base + noise_occlusion · (1 − visibility)`:
    /// well-visible crops give clean features; heavily occluded or
    /// truncated crops give degraded ones.
    pub fn observe(&self, actor: GtObjectId, frame: FrameIdx, visibility: f64) -> Feature {
        let latent = self.shared_latent(actor);
        // Crop-quality jitter: deterministic in (actor, frame).
        let quality = (self.mix(actor.get(), frame.get(), 8) % 1024) as f64 / 1024.0;
        let sigma = self.config.noise_base
            + self.config.noise_range * quality
            + self.config.noise_occlusion * (1.0 - visibility.clamp(0.0, 1.0));
        let noise = self.unit_vec(self.mix(actor.get(), frame.get(), 6));
        let perturbed: Vec<f64> = latent
            .as_slice()
            .iter()
            .zip(&noise)
            .map(|(l, n)| l + sigma * n)
            .collect();
        Feature::normalized(perturbed)
    }

    /// Runs "ReID inference" on an arbitrary detection: true positives use
    /// the actor's latent; false positives get an unrelated deterministic
    /// vector (seeded by frame and box position).
    pub fn observe_detection(&self, det: &Detection) -> Feature {
        match det.provenance {
            Some(actor) => self.observe(actor, det.frame, det.visibility),
            None => self.fp_feature(det.frame, &det.bbox),
        }
    }

    /// Runs "ReID inference" on a track box (the form the merging stage
    /// uses): provenance-backed boxes behave like true-positive detections;
    /// provenance-free boxes (tracked false positives) get unrelated
    /// deterministic vectors.
    pub fn observe_track_box(&self, tb: &tm_types::TrackBox) -> Feature {
        match tb.provenance {
            Some(actor) => self.observe(actor, tb.frame, tb.visibility),
            None => self.fp_feature(tb.frame, &tb.bbox),
        }
    }

    /// Deterministic unrelated feature for a false-positive box.
    fn fp_feature(&self, frame: FrameIdx, bbox: &tm_types::BBox) -> Feature {
        let salt = (bbox.x.to_bits() >> 16) ^ (bbox.y.to_bits() >> 24);
        Feature::normalized(self.unit_vec(self.mix(frame.get(), salt, 7)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_types::BBox;

    fn model() -> AppearanceModel {
        AppearanceModel::new(AppearanceConfig::default())
    }

    #[test]
    fn latents_are_unit_norm_and_deterministic() {
        let m = model();
        let a = m.latent(GtObjectId(5));
        let b = m.latent(GtObjectId(5));
        assert_eq!(a, b);
        let norm: f64 = a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_actors_have_distinct_latents() {
        let m = model();
        let d = m.latent(GtObjectId(1)).euclidean(&m.latent(GtObjectId(2)));
        assert!(d > 0.1, "latents unexpectedly close: {d}");
    }

    #[test]
    fn same_actor_observations_are_close_when_visible() {
        let m = model();
        let f1 = m.observe(GtObjectId(3), FrameIdx(10), 1.0);
        let f2 = m.observe(GtObjectId(3), FrameIdx(11), 1.0);
        let same = f1.euclidean(&f2);
        let f3 = m.observe(GtObjectId(4), FrameIdx(10), 1.0);
        let diff = f1.euclidean(&f3);
        assert!(same < diff, "same-actor {same} vs diff-actor {diff}");
        assert!(same < 0.6, "same-actor distance too large: {same}");
    }

    #[test]
    fn occlusion_degrades_features() {
        let m = model();
        let clean: f64 = (0..50)
            .map(|f| {
                m.observe(GtObjectId(3), FrameIdx(f), 1.0)
                    .euclidean(&m.observe(GtObjectId(3), FrameIdx(f + 100), 1.0))
            })
            .sum::<f64>()
            / 50.0;
        let occluded: f64 = (0..50)
            .map(|f| {
                m.observe(GtObjectId(3), FrameIdx(f), 0.3)
                    .euclidean(&m.observe(GtObjectId(3), FrameIdx(f + 100), 0.3))
            })
            .sum::<f64>()
            / 50.0;
        assert!(
            occluded > clean + 0.1,
            "occluded {occluded} should exceed clean {clean}"
        );
    }

    #[test]
    fn same_archetype_actors_are_harder_negatives() {
        let cfg = AppearanceConfig {
            n_archetypes: 2,
            ..AppearanceConfig::default()
        };
        let m = AppearanceModel::new(cfg);
        // Find two pairs: same archetype and different archetype.
        let actors: Vec<GtObjectId> = (0..40).map(GtObjectId).collect();
        let mut same_arch = Vec::new();
        let mut diff_arch = Vec::new();
        for (i, &a) in actors.iter().enumerate() {
            for &b in &actors[i + 1..] {
                let d = m.latent(a).euclidean(&m.latent(b));
                if m.archetype_of(a) == m.archetype_of(b) {
                    same_arch.push(d);
                } else {
                    diff_arch.push(d);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(!same_arch.is_empty() && !diff_arch.is_empty());
        assert!(
            mean(&same_arch) + 0.3 < mean(&diff_arch),
            "same-archetype {} vs different-archetype {}",
            mean(&same_arch),
            mean(&diff_arch)
        );
    }

    #[test]
    fn observations_are_idempotent() {
        let m = model();
        assert_eq!(
            m.observe(GtObjectId(1), FrameIdx(9), 0.7),
            m.observe(GtObjectId(1), FrameIdx(9), 0.7)
        );
    }

    #[test]
    fn memoized_latents_give_the_freshly_computed_features() {
        let configs = [
            AppearanceConfig::default(),
            AppearanceConfig {
                dim: 48,
                n_archetypes: 3,
                individuality: 0.2,
                noise_occlusion: 0.4,
                seed: 77,
                ..AppearanceConfig::default()
            },
        ];
        let bits = |f: &Feature| f.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for config in configs {
            let warm = AppearanceModel::new(config);
            // Actors come back across frames and visibilities, so most
            // observations read a latent memoized by an earlier one.
            for i in 0..600u64 {
                let actor = GtObjectId(i * 7 % 41);
                let frame = FrameIdx(i * 13 % 257);
                let visibility = (i % 11) as f64 / 10.0;
                // A fresh model computes the latent on this very call.
                let fresh = AppearanceModel::new(config);
                let (got, want) = (
                    warm.observe(actor, frame, visibility),
                    fresh.observe(actor, frame, visibility),
                );
                assert_eq!(bits(&got), bits(&want), "{config:?}, observation {i}");
                assert_eq!(
                    bits(&warm.latent(actor)),
                    bits(&fresh.compute_latent(actor))
                );
            }
            assert_eq!(warm.latents.0.read().unwrap().len(), 41);
            assert_eq!(warm, AppearanceModel::new(config));
            assert!(warm.clone().latents.0.read().unwrap().is_empty());
        }
    }

    #[test]
    fn false_positives_get_unrelated_features() {
        let m = model();
        let fp = Detection::false_positive(
            FrameIdx(4),
            BBox::new(100.0, 50.0, 30.0, 60.0),
            0.4,
            tm_types::ids::classes::PEDESTRIAN,
        );
        let f = m.observe_detection(&fp);
        let d = f.euclidean(&m.latent(GtObjectId(0)));
        assert!(
            d > 0.5,
            "FP feature suspiciously close to a real actor: {d}"
        );
    }
}
