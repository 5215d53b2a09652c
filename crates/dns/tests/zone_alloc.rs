//! Pins the allocation behaviour of the zone-scan hot path.
//!
//! The batch pipeline (`shamfinder scan-zone`) calls
//! `ZoneStreamParser::scan_line` once per line over multi-GB files; the
//! whole point of the scan API is that the dominant line shape — a
//! well-formed record in a run of records for one owner — allocates
//! nothing, and that once the parser's name buffers are warm, neither
//! does any other well-formed ASCII line — a new owner resolves into
//! the retained owner buffer and NS/CNAME/MX targets are validated
//! without being materialised. These tests count allocations through a
//! wrapping global allocator and fail if that guarantee regresses.

use sham_dns::zone::{ZoneScan, ZoneStreamParser};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Counts alloc/realloc calls per thread so concurrently running tests
/// in this binary cannot pollute each other's counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[test]
fn same_owner_record_run_is_allocation_free() {
    let mut parser = ZoneStreamParser::new("com");
    // Warm the owner cache: the first line for an owner resolves and
    // stores the name (that one may allocate).
    match parser.scan_line("steady IN A 192.0.2.1").unwrap() {
        ZoneScan::Record { new_owner, .. } => assert!(new_owner),
        ZoneScan::Skip => panic!("expected a record"),
    }

    let lines = [
        "steady IN A 192.0.2.2",
        "steady 3600 IN A 192.0.2.3",
        "\tIN A 192.0.2.4",
        "steady IN AAAA 2001:db8::1",
    ];
    let before = allocs_on_this_thread();
    for _ in 0..10_000 {
        for raw in lines {
            match parser.scan_line(raw).unwrap() {
                ZoneScan::Record { new_owner, .. } => assert!(!new_owner),
                ZoneScan::Skip => panic!("expected a record"),
            }
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "scan_line allocated {delta} times over 40k same-owner record lines"
    );
}

/// Resolves each line of `lines` once, so the parser's name buffers
/// have grown to fit every name the measured loop will see.
fn warm_up(parser: &mut ZoneStreamParser, lines: &[&str]) {
    for raw in lines {
        parser.scan_line(raw).expect("warm-up lines are well formed");
    }
}

#[test]
fn new_owner_delegation_runs_are_allocation_free() {
    // The .com-dump shape: every delegation opens with a new owner's
    // NS record (target validated, never materialised), then its glue.
    let lines = [
        "alpha IN NS ns1.registrar.example.",
        "alpha IN A 192.0.2.1",
        "alpha 3600 IN AAAA 2001:db8::1",
        "Beta.sub IN NS ns2.Beta.sub",
        "\tIN A 192.0.2.2",
        "xn--ggle-55da\tIN\tNS\tns.parking.example.",
        "XN--GGLE-55DA.net. IN A 192.0.2.3",
        "@ IN MX 10 mail",
        "alias IN CNAME alpha",
    ];
    let mut parser = ZoneStreamParser::new("com");
    warm_up(&mut parser, &lines);
    let before = allocs_on_this_thread();
    let mut new_owners = 0u64;
    for _ in 0..2_000 {
        for raw in lines {
            match parser.scan_line(raw).unwrap() {
                ZoneScan::Record { new_owner, .. } => new_owners += new_owner as u64,
                ZoneScan::Skip => panic!("expected a record"),
            }
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(new_owners, 2_000 * 6, "each owner run must resolve its owner anew");
    assert_eq!(
        delta, 0,
        "scan_line allocated {delta} times over 18k new-owner delegation lines"
    );
}

#[test]
fn owner_changes_allocate_a_bounded_amount() {
    // Alternating owners defeat the owner-token cache, so each line
    // resolves a name — into the retained owner buffer.
    let mut parser = ZoneStreamParser::new("com");
    warm_up(&mut parser, &["alpha IN A 192.0.2.1", "beta IN A 192.0.2.2"]);
    let before = allocs_on_this_thread();
    for _ in 0..1_000 {
        parser.scan_line("alpha IN A 192.0.2.1").unwrap();
        parser.scan_line("beta IN A 192.0.2.2").unwrap();
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(delta, 0, "2k owner-changing scan lines allocated {delta} times");
}
