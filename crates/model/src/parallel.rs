//! The native engine's compute-pool handle: a width and its lane probes.
//!
//! Nothing fans out across it. The streamed forward pass finishes a whole
//! integration plane in 5–30 µs, under the ~64 µs a scoped spawn + join
//! costs — fanning planes out measured 4–7× slower at widths 2–4 — so the
//! forward pass runs on the calling thread at every width. The handle stays
//! because the engine, the runtime's lane profiler and the benchmark hold
//! it; ROADMAP's "delete the `ComputePool` handle" item removes it with them.

use std::num::NonZeroUsize;
use std::sync::Arc;

/// Observer hook for pool worker activity.
///
/// The engine/runtime layer attaches one probe per pool lane so the worker
/// profiler can attribute fan-out self-time (busy vs idle) to the compute
/// pool; the model crate itself knows nothing about metrics. No lane runs
/// work any more (see the module docs), so the probes stay silent.
pub trait WorkerProbe: Send + Sync {
    /// Called when the lane starts executing a chunk.
    fn busy(&self);
    /// Called when the lane finishes its chunk.
    fn idle(&self);
}

/// A fixed-width compute-pool handle.
///
/// `ComputePool::new(0)` auto-sizes to the host's available parallelism.
/// The width is reported (`NativeEngineConfig::compute_workers`, the
/// runtime's `compute_pool` event) but no longer changes how the forward
/// pass executes.
///
/// ```
/// use bishop_model::ComputePool;
///
/// assert_eq!(ComputePool::new(4).width(), 4);
/// assert_eq!(ComputePool::sequential().width(), 1);
/// ```
#[derive(Clone)]
pub struct ComputePool {
    width: usize,
    probes: Vec<Arc<dyn WorkerProbe>>,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("width", &self.width)
            .field("probes", &self.probes.len())
            .finish()
    }
}

impl Default for ComputePool {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ComputePool {
    /// Creates a pool with the given width. `0` auto-sizes to
    /// [`std::thread::available_parallelism`] (1 if unavailable).
    pub fn new(width: usize) -> Self {
        let width = if width == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            width
        };
        Self {
            width,
            probes: Vec::new(),
        }
    }

    /// A width-1 pool.
    pub fn sequential() -> Self {
        Self {
            width: 1,
            probes: Vec::new(),
        }
    }

    /// Attaches observer probes, one per pool lane.
    #[must_use]
    pub fn with_probes(mut self, probes: Vec<Arc<dyn WorkerProbe>>) -> Self {
        self.probes = probes;
        self
    }

    /// The pool's width.
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_width_resolves_to_host_parallelism() {
        assert!(ComputePool::new(0).width() >= 1);
        assert_eq!(ComputePool::new(3).width(), 3);
        assert_eq!(ComputePool::default().width(), 1);
    }
}
