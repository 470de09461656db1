//! Allocation regression test for the trainer: a training run allocates a
//! bounded number of buffers per epoch, never per sample.
//!
//! The counting allocator is process-wide, so this binary holds exactly one
//! test — a second test running on another harness thread would bleed its
//! allocations into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use annlib::{Dataset, Mlp, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus one relaxed counter bump per allocation or reallocation.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// side effect with no aliasing or layout implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn dataset(n: usize, rng: &mut StdRng) -> Dataset {
    let xs: Vec<Vec<f64>> =
        (0..n).map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * x[1] - 0.5 * x[2] + 0.1]).collect();
    Dataset::new(xs, ys).expect("well-formed dataset")
}

#[test]
fn training_allocates_per_epoch_not_per_sample() {
    const EPOCHS: usize = 50;
    const SAMPLES: usize = 400;
    let mut rng = StdRng::seed_from_u64(2007);
    let train = dataset(SAMPLES, &mut rng);
    let val = dataset(100, &mut rng);
    let mut net = Mlp::sigmoid_regressor(6, &[16], 1, &mut rng).expect("valid architecture");
    // Patience past the epoch budget: every one of the epochs runs.
    let trainer =
        Trainer::new(TrainConfig { max_epochs: EPOCHS, patience: EPOCHS, ..Default::default() })
            .expect("valid config");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = trainer.train(&mut net, &train, &val, &mut rng).expect("training succeeds");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(report.epochs_run, EPOCHS);
    let ceiling = 8 * EPOCHS as u64 + 64;
    assert!(
        allocations <= ceiling,
        "{EPOCHS} epochs over {SAMPLES} samples made {allocations} allocations (ceiling \
         {ceiling}): the training loop allocates per sample again"
    );
}
