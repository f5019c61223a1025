//! The simulated-inference cost model and clock.
//!
//! The paper's efficiency results (Figs. 4–7, Table II) measure wall-clock
//! time dominated by ReID-model invocations on an Intel Xeon + TITAN Xp.
//! Rather than inherit whatever hardware this reproduction happens to run
//! on, every ReID operation charges a deterministic simulated clock using
//! the constants below. `Runtime` and `FPS` in the experiment harness are
//! read off this clock, making the efficiency experiments exactly
//! reproducible (Criterion benches additionally measure real wall-clock for
//! the algorithmic kernels).
//!
//! Constants were calibrated once against Table II's MOT-17 column; see
//! DESIGN.md §6 and EXPERIMENTS.md for paper-vs-measured numbers.

/// Where the (simulated) ReID model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Sequential per-item inference.
    Cpu,
    /// Batched inference: each call pays a launch overhead plus a small
    /// per-item marginal cost. `batch` is the paper's `B` — the number of
    /// track pairs jointly evaluated per round.
    Gpu {
        /// Maximum number of track pairs evaluated per round.
        batch: usize,
    },
}

impl Device {
    /// The batch size `B` (1 on CPU).
    pub fn batch(&self) -> usize {
        match self {
            Device::Cpu => 1,
            Device::Gpu { batch } => (*batch).max(1),
        }
    }

    /// True for the GPU variants (the paper's `-B` algorithms).
    pub fn is_gpu(&self) -> bool {
        matches!(self, Device::Gpu { .. })
    }
}

/// Simulated cost constants, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One feature inference on the CPU.
    pub cpu_infer_ms: f64,
    /// Fixed overhead per GPU round (kernel launch + transfer).
    pub gpu_call_overhead_ms: f64,
    /// Marginal cost per feature inference inside a GPU round.
    pub gpu_infer_item_ms: f64,
    /// One pairwise feature distance on the CPU.
    pub cpu_dist_ms: f64,
    /// Marginal cost per pairwise distance inside a GPU round.
    pub gpu_dist_item_ms: f64,
    /// Per-track-pair bookkeeping cost of one Thompson-sampling scan
    /// (drawing θ for every live pair and taking the argmin).
    pub thompson_scan_ms_per_pair: f64,
    /// Per-track-pair bookkeeping cost of one LCB scan (recomputing every
    /// pair's confidence bound and taking the argmin) — more expensive
    /// than a Thompson draw, as in the paper's Python implementation.
    pub lcb_scan_ms_per_pair: f64,
    /// Vectorization speedup applied to scan costs when running on GPU.
    pub gpu_scan_speedup: f64,
}

impl CostModel {
    /// Constants calibrated against the paper's Table II (see DESIGN.md §6).
    pub fn calibrated() -> Self {
        Self {
            cpu_infer_ms: 15.0,
            gpu_call_overhead_ms: 2.0,
            gpu_infer_item_ms: 0.5,
            cpu_dist_ms: 0.32,
            gpu_dist_item_ms: 0.02,
            thompson_scan_ms_per_pair: 0.002,
            lcb_scan_ms_per_pair: 0.025,
            gpu_scan_speedup: 20.0,
        }
    }

    /// A free cost model, for accuracy-only experiments and tests.
    pub fn zero() -> Self {
        Self {
            cpu_infer_ms: 0.0,
            gpu_call_overhead_ms: 0.0,
            gpu_infer_item_ms: 0.0,
            cpu_dist_ms: 0.0,
            gpu_dist_item_ms: 0.0,
            thompson_scan_ms_per_pair: 0.0,
            lcb_scan_ms_per_pair: 0.0,
            gpu_scan_speedup: 1.0,
        }
    }

    /// Cost of inferring `n_new` features in one call on `device`.
    /// Zero-item calls are free (no kernel is launched).
    pub fn infer_cost_ms(&self, n_new: usize, device: Device) -> f64 {
        if n_new == 0 {
            return 0.0;
        }
        match device {
            Device::Cpu => n_new as f64 * self.cpu_infer_ms,
            Device::Gpu { .. } => self.gpu_call_overhead_ms + n_new as f64 * self.gpu_infer_item_ms,
        }
    }

    /// Cost of `n` pairwise distances on `device` (distances ride the same
    /// round as the inference call, so no extra launch overhead).
    pub fn distance_cost_ms(&self, n: usize, device: Device) -> f64 {
        match device {
            Device::Cpu => n as f64 * self.cpu_dist_ms,
            Device::Gpu { .. } => n as f64 * self.gpu_dist_item_ms,
        }
    }

    /// Bookkeeping cost of one Thompson-sampling scan over `n_pairs` pairs.
    pub fn thompson_scan_cost_ms(&self, n_pairs: usize, device: Device) -> f64 {
        let base = n_pairs as f64 * self.thompson_scan_ms_per_pair;
        if device.is_gpu() {
            base / self.gpu_scan_speedup.max(1.0)
        } else {
            base
        }
    }

    /// Bookkeeping cost of one LCB scan over `n_pairs` pairs.
    pub fn lcb_scan_cost_ms(&self, n_pairs: usize, device: Device) -> f64 {
        let base = n_pairs as f64 * self.lcb_scan_ms_per_pair;
        if device.is_gpu() {
            base / self.gpu_scan_speedup.max(1.0)
        } else {
            base
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// A simulated wall clock accumulating charged milliseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    elapsed_ms: f64,
}

impl SimClock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `ms` simulated milliseconds.
    pub fn charge(&mut self, ms: f64) {
        debug_assert!(ms >= 0.0, "cannot charge negative time");
        self.elapsed_ms += ms;
    }

    /// Total simulated time, milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ms
    }

    /// Total simulated time, seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ms / 1000.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.elapsed_ms = 0.0;
    }

    /// Restores a checkpointed reading, replacing the current one. Resume
    /// must reproduce the exact accumulated value, so this sets rather than
    /// charges.
    pub fn set_elapsed_ms(&mut self, ms: f64) {
        self.elapsed_ms = ms;
    }
}

/// Counters describing how hard the ReID model was worked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReidStats {
    /// Feature inferences actually executed.
    pub inferences: u64,
    /// Feature requests served from the cache (the paper's reuse
    /// optimization, §IV-B).
    pub cache_hits: u64,
    /// Pairwise distances evaluated.
    pub distances: u64,
    /// GPU rounds launched (0 on CPU).
    pub gpu_rounds: u64,
    /// Extraction attempts re-issued after a backend fault. Zero on the
    /// fault-free path, so adding the counter leaves historical reports
    /// unchanged.
    pub retries: u64,
    /// Backend faults observed (transient failures, unavailability windows,
    /// corrupted replies), whether or not a retry eventually succeeded.
    pub backend_faults: u64,
}

impl ReidStats {
    /// Cache hit rate in `[0, 1]`; 0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.inferences + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_inference_is_linear() {
        let c = CostModel::calibrated();
        assert_eq!(c.infer_cost_ms(0, Device::Cpu), 0.0);
        assert_eq!(c.infer_cost_ms(10, Device::Cpu), 10.0 * c.cpu_infer_ms);
    }

    #[test]
    fn gpu_inference_amortizes_overhead() {
        let c = CostModel::calibrated();
        let gpu = Device::Gpu { batch: 100 };
        let one = c.infer_cost_ms(1, gpu);
        let hundred = c.infer_cost_ms(100, gpu);
        // 100 items cost far less than 100 single-item calls.
        assert!(hundred < 100.0 * one);
        assert_eq!(c.infer_cost_ms(0, gpu), 0.0);
        // Per-item cost on GPU is below CPU for realistic batch sizes.
        assert!(hundred / 100.0 < c.cpu_infer_ms);
    }

    #[test]
    fn gpu_distances_are_cheaper() {
        let c = CostModel::calibrated();
        assert!(
            c.distance_cost_ms(1000, Device::Gpu { batch: 10 })
                < c.distance_cost_ms(1000, Device::Cpu)
        );
    }

    #[test]
    fn lcb_scan_costs_more_than_thompson() {
        let c = CostModel::calibrated();
        assert!(c.lcb_scan_cost_ms(400, Device::Cpu) > c.thompson_scan_cost_ms(400, Device::Cpu));
        // GPU vectorization shrinks both.
        assert!(
            c.lcb_scan_cost_ms(400, Device::Gpu { batch: 10 })
                < c.lcb_scan_cost_ms(400, Device::Cpu)
        );
    }

    #[test]
    fn zero_model_charges_nothing() {
        let c = CostModel::zero();
        assert_eq!(c.infer_cost_ms(100, Device::Cpu), 0.0);
        assert_eq!(c.infer_cost_ms(100, Device::Gpu { batch: 4 }), 0.0);
        assert_eq!(c.distance_cost_ms(50, Device::Cpu), 0.0);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let mut clk = SimClock::new();
        clk.charge(10.0);
        clk.charge(5.5);
        assert!((clk.elapsed_ms() - 15.5).abs() < 1e-12);
        assert!((clk.elapsed_secs() - 0.0155).abs() < 1e-12);
        clk.reset();
        assert_eq!(clk.elapsed_ms(), 0.0);
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = ReidStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.inferences = 3;
        s.cache_hits = 1;
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn device_batch_accessor() {
        assert_eq!(Device::Cpu.batch(), 1);
        assert_eq!(Device::Gpu { batch: 64 }.batch(), 64);
        assert_eq!(Device::Gpu { batch: 0 }.batch(), 1);
        assert!(!Device::Cpu.is_gpu());
        assert!(Device::Gpu { batch: 2 }.is_gpu());
    }
}
