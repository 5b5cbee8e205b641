//! Seeded edit-script generator. The program under test receives only what
//! this module generates — workbooks and CSVs — and every literal that
//! decides a cache key is drawn from the `--seed` stream, so the same seed
//! replays the same edits and a different seed shares no threshold with it.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sigma_browser::Source;
use sigma_core::document::ElementKind;
use sigma_core::table::{ColumnDef, DataSource, FilterPredicate, FilterSpec, Level, TableSpec};
use sigma_core::Workbook;
use sigma_value::{calendar, Value};
use sigma_workbook::demo;

/// The five named workloads (names are fixed; later issues cite them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScenariosCold,
    Scan1m,
    TabEditSession,
    WireDetailPages,
    AugmentWriteMix,
}

/// `Full` is the sizing frozen in `BENCHMARK.json`; `Smoke` (~2k rows) keeps
/// every workload and its correctness checks runnable under `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScenariosCold,
        Workload::Scan1m,
        Workload::TabEditSession,
        Workload::WireDetailPages,
        Workload::AugmentWriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScenariosCold => "scenarios_cold",
            Workload::Scan1m => "scan_1m",
            Workload::TabEditSession => "tab_edit_session",
            Workload::WireDetailPages => "wire_detail_pages",
            Workload::AugmentWriteMix => "augment_write_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `flights` rows loaded for this workload.
    pub fn rows(self, scale: Scale) -> usize {
        if scale == Scale::Smoke {
            return 2_000;
        }
        match self {
            Workload::ScenariosCold => 20_000,
            Workload::Scan1m => 1_000_000,
            Workload::TabEditSession => 50_000,
            Workload::WireDetailPages => 100_000,
            Workload::AugmentWriteMix => 20_000,
        }
    }

    /// Every `stride`-th edit (round of three scenarios, replay, write
    /// cycle) has its bytes compared with the reference path. The reference is a flattened query that costs
    /// one to three times the staged edit, so comparing every answer of a
    /// time-boxed run would take longer than the run; every edit is still
    /// checked for errors and for the source it must be served from.
    pub fn verify_stride(self, scale: Scale) -> usize {
        if scale == Scale::Smoke {
            return 1;
        }
        match self {
            Workload::ScenariosCold => 6,
            Workload::Scan1m => 3,
            Workload::TabEditSession => 8,
            Workload::WireDetailPages => 1,
            Workload::AugmentWriteMix => 8,
        }
    }
}

/// Name `project_input_table` gives the pasted airports table for the
/// first org of a service; the environment asserts it.
pub const INPUT_TABLE: &str = "input_1_airport_info";
/// Warehouse table the CSV uploads of `augment_write_mix` replace.
pub const WEB_TABLE: &str = "airports_web";
/// Rows a `wire_detail_pages` page carries.
pub const PAGE_ROWS: u64 = 500;
/// Edits in one `tab_edit_session` replay.
pub const REPLAY_EDITS: usize = 24;
/// Edits (two writes, eleven reads) in one `augment_write_mix` cycle.
pub const CYCLE_EDITS: usize = 13;

/// What the edit asks of the system.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Query `Edit::element` of `Edit::workbook`.
    Query,
    /// `propagate_edits` of the journal pending on `Airport Info`.
    Propagate,
    /// `upload_csv` replacing `WEB_TABLE`.
    Upload(String),
}

/// Where a correct system must serve the edit from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Not a directory hit, and every row of `flights` scanned again: no
    /// cached stage stood in for the fact table.
    Cold,
    /// Anything but a whole-query directory hit (the state is new, or a
    /// write invalidated it).
    Miss,
    /// A miss that reuses at least one cached stage.
    StageReuse,
    /// Whole-query directory hit.
    DirectoryHit,
    /// Browser tier ladder: one of these sources.
    Tier(&'static [Source]),
    /// A write.
    Write,
}

/// One generated user gesture.
#[derive(Debug, Clone)]
pub struct Edit {
    pub op: Op,
    pub workbook: Workbook,
    pub element: &'static str,
    pub expect: Expect,
    /// The gesture opens a fresh browser tab (`tab_edit_session` replays).
    pub new_tab: bool,
    /// The seeded literal that makes this edit's state new (NaN for
    /// repeats, undos and writes).
    pub threshold: f64,
}

/// Unique seeded literals: six decimals, never repeated within a stream.
struct Uniq {
    rng: StdRng,
    seen: HashSet<u64>,
}

impl Uniq {
    fn new(seed: u64) -> Uniq {
        Uniq {
            rng: StdRng::seed_from_u64(seed),
            seen: HashSet::new(),
        }
    }

    fn draw(&mut self, lo: f64, hi: f64) -> f64 {
        loop {
            let v = lo + self.rng.random::<f64>() * (hi - lo);
            let v = (v * 1e6).round() / 1e6;
            if self.seen.insert(v.to_bits()) {
                return v;
            }
        }
    }
}

fn min_filter(column: &str, min: Value) -> FilterSpec {
    FilterSpec {
        column: column.into(),
        predicate: FilterPredicate::Range {
            min: Some(min),
            max: None,
        },
    }
}

fn wrap(name: &str, element: &str, t: TableSpec) -> Workbook {
    let mut wb = Workbook::new(Some(name));
    wb.add_element(0, element, ElementKind::Table(t))
        .expect("fresh workbook");
    wb
}

fn flights_table(columns: &[(&str, &str)]) -> TableSpec {
    let mut t = TableSpec::new(DataSource::WarehouseTable {
        table: "flights".into(),
    });
    for (name, source) in columns {
        t.add_column(ColumnDef::source(*name, *source))
            .expect("distinct column names");
    }
    t
}

/// The augmentation workbook as the service leaves it after projecting the
/// pasted table (the environment performs the projection).
fn projected_augmentation() -> Workbook {
    let mut wb = demo::augmentation_workbook();
    wb.input_table_mut("Airport Info")
        .expect("scenario 3 has the input table")
        .warehouse_table = Some(INPUT_TABLE.into());
    wb
}

/// The augmentation use case extended into a read/write mix: the joined
/// element looks up the city in the editable table and the state in an
/// uploaded CSV, so both kinds of write invalidate it; `By Carrier` reads
/// `flights` alone and must survive every write.
pub fn augment_mix_workbook() -> Workbook {
    let mut wb = projected_augmentation();
    let mut web = TableSpec::new(DataSource::Csv {
        table: WEB_TABLE.into(),
    });
    web.add_column(ColumnDef::source("code", "code")).unwrap();
    web.add_column(ColumnDef::source("state", "state")).unwrap();
    wb.add_element(0, "Airports Web", ElementKind::Table(web))
        .unwrap();
    let flights = wb.table_mut("Flights").expect("scenario 3 has Flights");
    flights
        .add_column(ColumnDef::formula(
            "Origin State",
            "Lookup([Airports Web/state], [Origin], [Airports Web/code])",
            0,
        ))
        .unwrap();
    // Depends on the lookup, so a filter on it applies after the join and
    // a tweak of its threshold can reuse the join stage.
    flights
        .add_column(ColumnDef::formula(
            "Known Delay",
            "If(IsNull([Origin City]), Null, [Dep Delay])",
            0,
        ))
        .unwrap();
    let mut by_carrier = flights_table(&[("Carrier", "carrier"), ("Dep Delay", "dep_delay")]);
    by_carrier
        .add_level(1, Level::keyed("By Carrier", vec!["Carrier".into()]))
        .unwrap();
    by_carrier
        .add_column(ColumnDef::formula("Flights", "Count()", 1))
        .unwrap();
    by_carrier
        .add_column(ColumnDef::formula("Worst Delay", "Max([Dep Delay])", 1))
        .unwrap();
    by_carrier.detail_level = 1;
    wb.add_element(0, "By Carrier", ElementKind::Table(by_carrier))
        .unwrap();
    wb
}

const LOCAL_DELTA: &[Source] = &[Source::LocalDelta];
const LOCAL_ANY: &[Source] = &[Source::LocalDelta, Source::LocalResidual];
const BROWSER_CACHE: &[Source] = &[Source::BrowserCache];
const SERVICE: &[Source] = &[Source::Warehouse];

/// `tab_edit_session` state: a filtered detail table, optionally with the
/// formula column and a grouping level.
fn tab_state(min: f64, formula: bool, group: Option<&str>) -> Workbook {
    let mut t = flights_table(&[
        ("Carrier", "carrier"),
        ("Origin", "origin"),
        ("Dep Delay", "dep_delay"),
    ]);
    t.filters.push(min_filter("Dep Delay", Value::Float(min)));
    if formula {
        t.add_column(ColumnDef::formula("Delay Hours", "[Dep Delay] / 60", 0))
            .unwrap();
    }
    if let Some(key) = group {
        t.add_level(1, Level::keyed("Grouped", vec![key.into()]))
            .unwrap();
        t.add_column(ColumnDef::formula("Flights", "Count()", 1))
            .unwrap();
        t.detail_level = 1;
    }
    wrap("session", "Delays", t)
}

/// An endless, deterministic stream of edits for one client of a workload.
pub struct Script {
    workload: Workload,
    seed: u64,
    uniq: Uniq,
    /// Edits produced so far.
    index: usize,
    /// `wire_detail_pages`: this client's slice of the threshold range.
    slice: (f64, f64),
    bases: Vec<(Workbook, &'static str)>,
    /// `tab_edit_session`: states of the current replay, for undo.
    history: Vec<Workbook>,
    last_min: f64,
}

impl Script {
    /// `client` of `clients` selects a disjoint threshold slice, so
    /// concurrent sessions never ask for the same state.
    pub fn new(workload: Workload, seed: u64, client: usize, clients: usize) -> Script {
        let bases = match workload {
            Workload::ScenariosCold => vec![
                (demo::cohort_workbook(), "Flights"),
                (demo::sessionization_workbook(), "Service Life"),
                (projected_augmentation(), "Flights"),
            ],
            Workload::AugmentWriteMix => vec![(augment_mix_workbook(), "Flights")],
            _ => Vec::new(),
        };
        // Delays of 100 to 130 minutes leave ~5k of the 100k rows: the
        // filtered stage the warehouse persists per page stays small, so
        // its result LRU fills without the process growing mid-run.
        let width = 30.0 / clients.max(1) as f64;
        Script {
            workload,
            seed,
            // Distinct streams per workload and client from one seed.
            uniq: Uniq::new(
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((workload as u64) << 8) ^ client as u64,
            ),
            index: 0,
            slice: (
                100.0 + width * client as f64,
                100.0 + width * (client + 1) as f64,
            ),
            bases,
            history: Vec::new(),
            last_min: 0.0,
        }
    }

    fn query(workbook: Workbook, element: &'static str, expect: Expect, threshold: f64) -> Edit {
        Edit {
            op: Op::Query,
            workbook,
            element,
            expect,
            new_tab: false,
            threshold,
        }
    }

    /// The paper's three use cases round-robin. The seeded literal sits in
    /// the SQL source of `Flights` — a filter on the element would apply
    /// after the base stage and leave everything before it cached — so
    /// every stage that reads the fact table has a new fingerprint.
    fn scenarios_cold(&mut self) -> Edit {
        let (base, element) = &self.bases[self.index % 3];
        let t = self.uniq.draw(-4.0, -3.0);
        let mut wb = base.clone();
        wb.table_mut("Flights")
            .expect("every scenario has Flights")
            .source = DataSource::RawSql {
            sql: format!("SELECT * FROM flights WHERE dep_delay >= {t}"),
        };
        Script::query(wb, element, Expect::Cold, t)
    }

    /// One year of flights above a delay threshold (both seeded, in the
    /// SQL source so the scan itself is new) -> group by carrier or origin
    /// -> top ten. The aggregates are exact, so the staged and the
    /// flattened plan must agree to the byte.
    fn scan_1m(&mut self) -> Edit {
        let t = self.uniq.draw(-2.0, 2.0);
        let first_day = calendar::days_from_civil(1990, 1, 1);
        let day = first_day + self.uniq.rng.random_range(0..9000);
        let date = |d: i32| {
            let (y, m, d) = calendar::civil_from_days(d);
            format!("DATE '{y:04}-{m:02}-{d:02}'")
        };
        let key = if self.index.is_multiple_of(2) {
            "Carrier"
        } else {
            "Origin"
        };
        let mut table = TableSpec::new(DataSource::RawSql {
            sql: format!(
                "SELECT carrier, origin, dep_delay, cancelled FROM flights \
                 WHERE flight_date >= {} AND flight_date <= {} AND dep_delay >= {t}",
                date(day),
                date(day + 365)
            ),
        });
        for (name, source) in [
            ("Carrier", "carrier"),
            ("Origin", "origin"),
            ("Dep Delay", "dep_delay"),
            ("Cancelled", "cancelled"),
        ] {
            table.add_column(ColumnDef::source(name, source)).unwrap();
        }
        table
            .add_level(
                1,
                Level::keyed("Grouped", vec![key.into()]).with_ordering("Flights", true),
            )
            .unwrap();
        table
            .add_column(ColumnDef::formula("Flights", "Count()", 1))
            .unwrap();
        table
            .add_column(ColumnDef::formula(
                "Cancellations",
                "Sum(If([Cancelled], 1, 0))",
                1,
            ))
            .unwrap();
        table
            .add_column(ColumnDef::formula("Worst Delay", "Max([Dep Delay])", 1))
            .unwrap();
        table.detail_level = 1;
        table.limit = Some(10);
        Script::query(wrap("scan", "Top", table), "Top", Expect::Cold, t)
    }

    /// open -> 8 tweaks -> formula column -> 7 tweaks -> 2 regroups ->
    /// 3 undos -> 2 tweaks, in a fresh tab per replay.
    fn tab_edit_session(&mut self) -> Edit {
        let step = self.index % REPLAY_EDITS;
        let tier = |s| Expect::Tier(s);
        let (wb, expect, threshold) = match step {
            0 => {
                self.history.clear();
                self.last_min = self.uniq.draw(5.0, 10.0);
                (
                    tab_state(self.last_min, false, None),
                    tier(SERVICE),
                    self.last_min,
                )
            }
            1..=8 | 10..=16 | 22..=23 => {
                self.last_min = self.uniq.draw(5.0, 25.0);
                (
                    tab_state(self.last_min, step > 8, None),
                    tier(LOCAL_DELTA),
                    self.last_min,
                )
            }
            9 => (
                tab_state(self.last_min, true, None),
                tier(LOCAL_DELTA),
                f64::NAN,
            ),
            17 | 18 => {
                let key = if step == 17 { "Carrier" } else { "Origin" };
                (
                    tab_state(self.last_min, true, Some(key)),
                    tier(LOCAL_ANY),
                    f64::NAN,
                )
            }
            // Undo: the states of steps 17, 16, 15 again.
            _ => (
                self.history[36 - step].clone(),
                tier(BROWSER_CACHE),
                f64::NAN,
            ),
        };
        self.history.push(wb.clone());
        Edit {
            new_tab: step == 0,
            ..Script::query(wb, "Delays", expect, threshold)
        }
    }

    /// One page of wide detail rows (Text columns included) per edit.
    fn wire_detail_pages(&mut self) -> Edit {
        let t = self.uniq.draw(self.slice.0, self.slice.1);
        let mut table = flights_table(&[
            ("Tail Number", "tail_number"),
            ("Carrier", "carrier"),
            ("Flight Date", "flight_date"),
            ("Origin", "origin"),
            ("Dest", "dest"),
            ("Dep Delay", "dep_delay"),
            ("Air Time", "air_time"),
        ]);
        table.filters.push(min_filter("Dep Delay", Value::Float(t)));
        table.limit = Some(PAGE_ROWS);
        Script::query(wrap("pages", "Detail", table), "Detail", Expect::Miss, t)
    }

    /// Two writes per cycle, each followed by a read of the joined element
    /// that must miss and a repeat that must hit; between them downstream
    /// filter tweaks (stage reuse) and undos (hits), and last a
    /// `flights`-only element that must still hit. Five of thirteen edits
    /// are directory hits of the joined element and two are misses, so the
    /// median edit is a hit and the 90th percentile a miss.
    fn augment_write_mix(&mut self) -> Edit {
        let cycle = self.index / CYCLE_EDITS;
        let base = &mut self.bases[0].0;
        match self.index % CYCLE_EDITS {
            0 => {
                let input = base.input_table_mut("Airport Info").unwrap();
                let row = input.rows[self.uniq.rng.random_range(0..input.rows.len())].0;
                input
                    .set_cell(row, "city", format!("City {cycle}").into())
                    .expect("row and column exist");
                let with_journal = base.clone();
                base.input_table_mut("Airport Info").unwrap().take_journal();
                Edit {
                    op: Op::Propagate,
                    ..Script::query(with_journal, "Airport Info", Expect::Write, f64::NAN)
                }
            }
            7 => Edit {
                op: Op::Upload(sigma_flights::dirty_airports_csv(
                    self.seed.wrapping_add(cycle as u64),
                )),
                ..Script::query(base.clone(), "Airports Web", Expect::Write, f64::NAN)
            },
            1 | 8 => Script::query(base.clone(), "Flights", Expect::Miss, f64::NAN),
            3 | 5 | 10 => {
                let t = self.uniq.draw(-4.0, 10.0);
                let mut wb = base.clone();
                wb.table_mut("Flights")
                    .unwrap()
                    .filters
                    .push(min_filter("Known Delay", Value::Float(t)));
                Script::query(wb, "Flights", Expect::StageReuse, t)
            }
            12 => Script::query(base.clone(), "By Carrier", Expect::DirectoryHit, f64::NAN),
            // 2, 9: the same state again; 4, 6, 11: undo of a tweak.
            _ => Script::query(base.clone(), "Flights", Expect::DirectoryHit, f64::NAN),
        }
    }
}

impl Iterator for Script {
    type Item = Edit;

    fn next(&mut self) -> Option<Edit> {
        let edit = match self.workload {
            Workload::ScenariosCold => self.scenarios_cold(),
            Workload::Scan1m => self.scan_1m(),
            Workload::TabEditSession => self.tab_edit_session(),
            Workload::WireDetailPages => self.wire_detail_pages(),
            Workload::AugmentWriteMix => self.augment_write_mix(),
        };
        self.index += 1;
        Some(edit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thresholds(workload: Workload, seed: u64) -> Vec<(String, f64)> {
        Script::new(workload, seed, 0, 1)
            .take(5 * REPLAY_EDITS)
            .map(|e| (e.workbook.to_json().unwrap(), e.threshold))
            .collect()
    }

    #[test]
    fn same_seed_same_script_other_seed_other_thresholds() {
        for workload in Workload::ALL {
            let a = thresholds(workload, 7);
            let b = thresholds(workload, 7);
            assert_eq!(a.len(), b.len());
            for ((ja, ta), (jb, tb)) in a.iter().zip(&b) {
                assert_eq!(ja, jb, "{}: same seed, different workbook", workload.name());
                assert_eq!(ta.to_bits(), tb.to_bits());
            }
            let c = thresholds(workload, 8);
            let mut drawn = 0;
            for ((_, ta), (_, tc)) in a.iter().zip(&c) {
                assert_eq!(ta.is_nan(), tc.is_nan(), "script shape depends on the seed");
                if !ta.is_nan() {
                    drawn += 1;
                    assert_ne!(ta, tc, "{}: seeds share a threshold", workload.name());
                }
            }
            assert!(drawn >= 20, "{}: too few seeded literals", workload.name());
        }
    }

    #[test]
    fn thresholds_never_repeat_within_a_stream_or_across_clients() {
        let mut seen = HashSet::new();
        for client in 0..2 {
            for e in Script::new(Workload::WireDetailPages, 3, client, 2).take(500) {
                assert!(seen.insert(e.threshold.to_bits()), "repeated threshold");
            }
        }
    }

    #[test]
    fn undo_replays_earlier_states() {
        let edits: Vec<Edit> = Script::new(Workload::TabEditSession, 1, 0, 1)
            .take(REPLAY_EDITS)
            .collect();
        assert!(edits[0].new_tab);
        for (undo, of) in [(19, 17), (20, 16), (21, 15)] {
            assert_eq!(edits[undo].workbook, edits[of].workbook);
        }
    }
}
