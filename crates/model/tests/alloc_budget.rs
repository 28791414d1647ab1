//! Allocation budget of the native forward pass, counted exactly.
//!
//! The benchmark can only show allocator churn through host noise; this
//! suite pins it deterministically. A counting global allocator records
//! every byte requested while one `SpikingTransformer::infer` call, and one
//! `TransformerStepper::step` after the first, run on the `cifar10-serve`
//! shape. The forward pass streams integrate → fire through one reused
//! plane, so what remains is the LIF membranes (fused pass only), the
//! scratch set, and the packed spike tensors it returns — not `T` dense
//! f32 planes per layer.
//!
//! One test function on purpose: the counter is process-wide, and the test
//! harness runs separate tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bishop_model::{DatasetKind, ModelConfig, SpikingTransformer, TransformerStepper};
use bishop_spiketensor::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested from the allocator while `work` runs.
fn bytes_requested<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = work();
    (REQUESTED.load(Ordering::Relaxed) - before, out)
}

const KIB: usize = 1024;

#[test]
fn forward_pass_stays_inside_its_allocation_budget() {
    // (timesteps, per-infer ceiling, per-step ceiling), each ceiling ~25 %
    // above what the streamed forward measures. Bytes requested, commit
    // before it → with it:
    //   T=4: infer 4 095 377 → 1 059 185, step 821 672 → 26 696–27 272
    //   T=8: infer 7 464 233 → 1 245 065, step 821 672 → 26 632–28 424
    for (timesteps, infer_ceiling, step_ceiling) in
        [(4, 1_280 * KIB, 35 * KIB), (8, 1_500 * KIB, 35 * KIB)]
    {
        let config = ModelConfig::new(
            "cifar10-serve",
            DatasetKind::Cifar10,
            2,
            timesteps,
            64,
            128,
            4,
        );
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + timesteps as u64);
        let model = SpikingTransformer::random(&config, config.features, 10, &mut rng);
        let patches = DenseMatrix::random_uniform(config.tokens, config.features, 1.0, &mut rng);

        let (infer_bytes, result) = bytes_requested(|| model.infer(&patches));
        println!("alloc_budget: T={timesteps} infer requested {infer_bytes} B");
        assert!(
            infer_bytes <= infer_ceiling,
            "T={timesteps}: infer requested {infer_bytes} B, budget {infer_ceiling} B"
        );

        let mut stepper = TransformerStepper::new(&model, &patches);
        // The first step sizes the stepper's scratch set; later ones reuse it.
        stepper.step();
        for _ in 1..timesteps {
            let (step_bytes, _) = bytes_requested(|| stepper.step());
            println!("alloc_budget: T={timesteps} step requested {step_bytes} B");
            assert!(
                step_bytes <= step_ceiling,
                "T={timesteps}: step requested {step_bytes} B, budget {step_ceiling} B"
            );
        }
        assert_eq!(stepper.finish().logits, result.logits);
    }
}
