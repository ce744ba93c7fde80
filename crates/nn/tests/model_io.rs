//! A model file's header is read before its weights, so it must not
//! decide how much memory the reader takes: a 12-byte file that claims
//! 64 Mi weights has to fail on the missing weights, not reserve 1 GiB.

use metaai_math::rng::SimRng;
use metaai_nn::complex_lnn::ComplexLnn;
use metaai_nn::io::{read_model, write_model};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

/// The system allocator, recording the largest single request each
/// thread makes, so a measurement on one thread ignores every other.
struct PeakAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; recording touches
// only a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` makes on the calling thread.
fn largest_allocation_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn header(rows: u32, cols: u32) -> Vec<u8> {
    let mut buf = b"MAI1".to_vec();
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.extend_from_slice(&cols.to_le_bytes());
    buf
}

#[test]
fn a_bare_header_claiming_64_mi_weights_fails_without_a_large_allocation() {
    let file = header(2, 32 << 20);
    assert_eq!(file.len(), 12);
    let (result, largest) = largest_allocation_in(|| read_model(&file[..]));
    let err = result.expect_err("there are no weights to read");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        largest <= 2 << 20,
        "reading a 12-byte file allocated {largest} bytes at once"
    );
}

#[test]
fn a_model_larger_than_the_reservation_still_round_trips() {
    let net = ComplexLnn::init(2, 40_000, &mut SimRng::seed_from_u64(3));
    let mut file = Vec::new();
    write_model(&net, &mut file).expect("write");
    let loaded = read_model(&file[..]).expect("read");
    assert_eq!(loaded.weights, net.weights);
}
