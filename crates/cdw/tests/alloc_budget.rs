//! The allocation invariant of the row paths: **between scan and sink an
//! operator's heap allocations are O(columns + groups), never O(rows).**
//!
//! A counting global allocator (this file is its own test binary, with
//! one test, so nothing else allocates while a query runs) measures one
//! execution of each keyed / ordered / projected operator shape over the
//! 20k-row `flights` table at the default configuration. Each must stay
//! under `rows / 4` allocations — parse, plan, schemas and result
//! registration included. A per-row `Value`, `String` or key `Vec<u8>`
//! anywhere on the path costs at least `rows`, so it cannot hide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sigma_cdw::Warehouse;
use sigma_flights::{load_airports, load_flights, FlightsConfig};
use sigma_value::Batch;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 20_000;

#[test]
fn operators_allocate_per_column_and_group_not_per_row() {
    let wh = Warehouse::default();
    load_flights(&wh, &FlightsConfig::with_rows(ROWS)).unwrap();
    load_airports(&wh).unwrap();

    let partition = "PARTITION BY tail_number ORDER BY flight_date";
    let running = "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW";
    let cases: Vec<(&str, String, usize)> = vec![
        (
            "text-keyed LEFT JOIN",
            "SELECT * FROM flights f LEFT JOIN airports a ON f.origin = a.code".into(),
            ROWS,
        ),
        (
            // 20k build rows, a few dozen distinct keys: only a key's
            // first row may store it.
            "join with a many-duplicates build side",
            "SELECT a.city, f.tail_number FROM airports a JOIN flights f ON a.code = f.origin"
                .into(),
            ROWS,
        ),
        (
            "GROUP BY two keys, COUNT(DISTINCT text) + MIN(date)",
            "SELECT carrier, origin, COUNT(DISTINCT tail_number) AS planes, \
             MIN(flight_date) AS first_flight FROM flights GROUP BY carrier, origin"
                .into(),
            100,
        ),
        (
            "LAG / running SUM / LAST_VALUE IGNORE NULLS by text, ordered by date",
            format!(
                "SELECT tail_number, flight_date, \
                 LAG(flight_date) OVER ({partition}) AS prev, \
                 SUM(air_time) OVER ({partition} {running}) AS run, \
                 LAST_VALUE(dep_delay) IGNORE NULLS OVER ({partition} {running}) AS filled \
                 FROM flights"
            ),
            ROWS,
        ),
        (
            "ORDER BY text, date over all columns",
            "SELECT * FROM flights ORDER BY tail_number, flight_date".into(),
            ROWS,
        ),
        (
            // The shape of a one-year range scan: Date >= / <= literals
            // AND a Float threshold, narrowed conjunct by conjunct.
            "three-conjunct range filter",
            "SELECT carrier, origin, dep_delay FROM flights \
             WHERE flight_date >= DATE '2001-01-01' AND flight_date <= DATE '2001-12-31' \
             AND dep_delay >= -2.5"
                .into(),
            100,
        ),
        (
            "Project with DATE_TRUNC / DATEDIFF / CASE",
            "SELECT DATE_TRUNC('quarter', flight_date) AS quarter, \
             DATEDIFF('day', flight_date, DATE '2021-01-01') AS age, \
             CASE WHEN cancelled THEN carrier ELSE origin END AS label FROM flights"
                .into(),
            ROWS,
        ),
    ];
    for (name, sql, min_rows) in &cases {
        within_budget(name, *min_rows, || wh.execute_sql(sql).unwrap().batch);
    }

    // A browser delta-tier edit is the same engine over a bound input:
    // filter + formula projection + ORDER BY on a hidden key, with the
    // cached parent stage bound by name (no table, no result registered).
    let parent = wh.execute_sql("SELECT * FROM flights").unwrap().batch;
    let edit = sigma_sql::parse_query(
        "SELECT t.carrier AS carrier, t.origin AS origin, t.dep_delay / 60 AS delay_hours \
         FROM base_0 AS t WHERE t.distance >= 0 ORDER BY t.flight_date, t.tail_number",
    )
    .unwrap();
    within_budget("delta-tier edit over a bound input", ROWS, || {
        let (batch, chain) = wh.execute_over(&edit, &[("base_0", &parent)]).unwrap();
        assert!(chain);
        batch
    });
}

/// Run `run` twice — once to warm lazy statics, the worker pool and the
/// allocator's arenas — and hold the second run to the allocation budget.
fn within_budget(name: &str, min_rows: usize, run: impl Fn() -> Batch) {
    let warm = run();
    assert!(
        warm.num_rows() >= min_rows,
        "{name}: {} rows",
        warm.num_rows()
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(result, warm, "{name}: deterministic");
    assert!(
        allocations <= ROWS / 4,
        "{name}: {allocations} allocations for {ROWS} rows (budget {})",
        ROWS / 4
    );
    println!("{name}: {allocations} allocations");
}
