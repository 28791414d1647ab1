//! The native engine's compute-pool handle: a resolved width.
//!
//! Nothing fans out across it. The streamed forward pass finishes a whole
//! integration plane in 5–30 µs, under the ~64 µs a scoped spawn + join
//! costs — fanning planes out measured 4–7× slower at widths 2–4 — so the
//! forward pass runs on the calling thread at every width. The handle stays
//! because the benchmark constructs it ([`ComputePool::new`],
//! `SpikingTransformer::infer_with`); ROADMAP's "delete the `ComputePool`
//! handle" item removes it together with the benchmark's `model.pool.*`
//! rows.

use std::num::NonZeroUsize;

/// A fixed-width compute-pool handle.
///
/// `ComputePool::new(0)` auto-sizes to the host's available parallelism.
/// The width is reported (`NativeEngineConfig::compute_workers`, the
/// runtime's `native_compute_resolved` event) but does not change how the
/// forward pass executes.
///
/// ```
/// use bishop_model::ComputePool;
///
/// assert_eq!(ComputePool::new(4).width(), 4);
/// assert!(ComputePool::new(0).width() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct ComputePool {
    width: usize,
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
        Self { width }
    }

    /// The pool's width.
    pub fn width(&self) -> usize {
        self.width
    }
}
