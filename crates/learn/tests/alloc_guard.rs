//! Allocation guard for tree fitting: a counting global allocator pins
//! how many allocations one fit of a fixed 130-row × 6-feature dataset
//! makes, and one refit after its last row is appended. The counts are
//! deterministic, so they can be gated exactly; a fit that allocates per
//! candidate split makes thousands more and fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use evovm_learn::dataset::{Dataset, Raw};
use evovm_learn::tree::{ClassificationTree, FitScratch, TreeParams};

struct CountingAlloc;

thread_local! {
    // `const` initialisation: no lazy set-up and no destructor, so the
    // allocator can touch it without allocating or recursing. Per thread,
    // so the test harness's other threads do not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting has no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The first `rows` of 130 rows of 6 numeric features with about 30
/// distinct values each — the shape of an `mtrt` history — labelled by
/// an interaction of three features plus noise, so the tree grows dozens
/// of nodes.
fn dataset(rows: usize) -> Dataset {
    let mut data = Dataset::new();
    let mut s: u64 = 0x5eed;
    for _ in 0..rows {
        let row: Vec<(String, Raw)> = (0..6)
            .map(|f| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (format!("f{f}"), Raw::Num(((s >> 33) % 30) as f64))
            })
            .collect();
        let v = |f: usize| match row[f].1 {
            Raw::Num(v) => v,
            Raw::Cat(_) => unreachable!(),
        };
        let mut label = u16::from(v(0) > 14.0) + u16::from(v(1) > 9.0) + u16::from(v(2) > 20.0);
        // A fifth of the labels are noise, as in sampled ideal levels.
        if v(5) < 6.0 {
            label = (label + 1) % 4;
        }
        data.push(&row, label).expect("consistent schema");
    }
    data
}

#[test]
fn fitting_allocates_a_fixed_small_count_per_node() {
    let data = dataset(130);
    let params = TreeParams::default();
    let (first, tree) = allocations(|| ClassificationTree::fit(&data, &params));
    let (second, again) = allocations(|| ClassificationTree::fit(&data, &params));
    assert_eq!(tree, again);
    assert_eq!(first, second, "allocation count repeats");
    let nodes = tree.node_count() as u64;
    assert!(nodes >= 25, "the dataset grows a real tree ({nodes} nodes)");
    // One box per non-root node, plus the fit's scratch buffers and the
    // tree's copy of the schema: a constant that does not grow with the
    // number of candidate splits.
    assert!(first <= nodes + 32, "{first} allocations for {nodes} nodes");
    assert_eq!((first, nodes), (51, 31), "pinned allocation count");
}

#[test]
fn refitting_an_appended_row_allocates_only_what_it_regrows() {
    let (fewer, data) = (dataset(129), dataset(130));
    let params = TreeParams::default();
    let fitted = ClassificationTree::fit(&fewer, &params);
    let full = ClassificationTree::fit(&data, &params);
    let mut scratch = FitScratch::default();
    // A fresh scratch sizes its buffers once.
    let mut tree = fitted.clone();
    let (cold, ()) =
        allocations(|| tree.refit_appended(&data, data.labels(), &params, &mut scratch));
    assert_eq!(tree, full);
    // A kept scratch already fits: only regrown nodes would allocate, and
    // the 130th row changes no split.
    let mut tree = fitted.clone();
    let (warm, ()) =
        allocations(|| tree.refit_appended(&data, data.labels(), &params, &mut scratch));
    assert_eq!(tree, full);
    assert_eq!((cold, warm), (14, 0), "pinned allocation counts");
}

/// Growing the dataset one row at a time: refitting after each row, with
/// one kept scratch, allocates a small share of what a full fit after
/// each row does, and builds the same trees.
#[test]
fn refitting_row_by_row_allocates_a_fraction_of_full_fits() {
    let params = TreeParams::default();
    let mut scratch = FitScratch::default();
    let mut tree = ClassificationTree::fit(&dataset(1), &params);
    let (mut refits, mut fits) = (0, 0);
    for rows in 2..=130 {
        let data = dataset(rows);
        let (allocs, ()) =
            allocations(|| tree.refit_appended(&data, data.labels(), &params, &mut scratch));
        refits += allocs;
        let (allocs, full) = allocations(|| ClassificationTree::fit(&data, &params));
        fits += allocs;
        assert_eq!(tree, full, "after {rows} rows");
    }
    assert!(
        refits * 5 < fits,
        "{refits} refit against {fits} fit allocations"
    );
    assert_eq!(refits, 565, "pinned allocation count");
}
