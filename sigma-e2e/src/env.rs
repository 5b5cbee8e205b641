//! The system under test as one process holds it — warehouse, service and,
//! for the wire workload, the TCP server — plus the three kinds of client
//! that submit generated edits to it.

use std::sync::Arc;
use std::time::Duration;

use sigma_browser::{BrowserSession, Source};
use sigma_cdw::Warehouse;
use sigma_flights::{generate_flights, FlightsConfig};
use sigma_protocol::WirePriority;
use sigma_server::{serve, QueryReply, ServerHandle, SigmaClient};
use sigma_service::workload::Priority;
use sigma_service::{QueryOutcome, QueryRequest, ServedFrom, SigmaService};
use sigma_value::Batch;
use sigma_workbook::demo;

use crate::gen::{self, Edit, Expect, Op, Scale, Workload};
use crate::trace::Tracer;

pub const CONNECTION: &str = "primary";
/// Parent name of the spans a client records around its own calls.
pub const EDIT: &str = "edit";
/// Stage results may ride back to the tab up to this size, so the tier
/// ladder has the projected scan to work from (`tab_edit_session`).
const TAB_STAGE_BYTES: usize = 64 << 20;

pub struct Env {
    pub warehouse: Arc<Warehouse>,
    pub service: Arc<SigmaService>,
    pub token: String,
    pub server: Option<ServerHandle>,
}

impl Env {
    /// Data generation, table load, service and (for the wire workload)
    /// server start — everything at its defaults.
    pub fn new(workload: Workload, scale: Scale) -> Env {
        let mut env = Env::without_server(workload, scale);
        if workload == Workload::WireDetailPages {
            env.server = Some(serve(env.service.clone(), "127.0.0.1:0").expect("bind loopback"));
        }
        env
    }

    /// The reference side: same data, no stage caching, no server. Answers
    /// come from `Warehouse::execute_sql` of the flattened SQL.
    pub fn reference(workload: Workload, scale: Scale) -> Env {
        let env = Env::without_server(workload, scale);
        env.service.set_stage_caching(false);
        env
    }

    fn without_server(workload: Workload, scale: Scale) -> Env {
        let warehouse = Arc::new(Warehouse::default());
        let flights = generate_flights(&FlightsConfig::with_rows(workload.rows(scale)));
        warehouse
            .load_table("flights", flights)
            .expect("load flights");
        sigma_flights::load_airports(&warehouse).expect("load airports");
        let (service, token) = demo::demo_service(warehouse.clone());
        match workload {
            Workload::ScenariosCold | Workload::AugmentWriteMix => {
                let mut wb = demo::augmentation_workbook();
                let table = service
                    .project_input_table(&token, CONNECTION, &mut wb, "Airport Info")
                    .expect("project the pasted table");
                assert_eq!(table, gen::INPUT_TABLE, "generator assumes this name");
                service
                    .upload_csv(
                        &token,
                        CONNECTION,
                        gen::WEB_TABLE,
                        &sigma_flights::dirty_airports_csv(0),
                    )
                    .expect("first upload");
            }
            Workload::TabEditSession => service.set_stage_ship_cap(TAB_STAGE_BYTES),
            Workload::Scan1m | Workload::WireDetailPages => {}
        }
        Env {
            warehouse,
            service,
            token,
            server: None,
        }
    }

    pub fn run_query(&self, json: &str, element: &str) -> Result<QueryOutcome, String> {
        self.service
            .run_query(&QueryRequest {
                token: &self.token,
                connection: CONNECTION,
                workbook_json: json,
                element,
                priority: Priority::Interactive,
            })
            .map_err(|e| e.to_string())
    }

    /// Apply a generated write through the service.
    pub fn write(&self, edit: &Edit) -> Result<(), String> {
        match &edit.op {
            Op::Propagate => {
                let mut wb = edit.workbook.clone();
                self.service
                    .propagate_edits(&self.token, CONNECTION, &mut wb, edit.element)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            Op::Upload(csv) => self
                .service
                .upload_csv(&self.token, CONNECTION, gen::WEB_TABLE, csv)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Op::Query => Ok(()),
        }
    }

    /// The reference answer of a query edit: compile, then run the
    /// flattened SQL straight on the warehouse.
    pub fn reference_answer(&self, edit: &Edit) -> Result<Batch, String> {
        let compiled = self
            .service
            .compile_with_token(&self.token, CONNECTION, &edit.workbook, edit.element)
            .map_err(|e| e.to_string())?;
        let result = self
            .warehouse
            .execute_sql(&compiled.sql)
            .map_err(|e| e.to_string())?;
        self.warehouse.evict_result(&result.query_id);
        Ok(result.batch)
    }
}

/// What an edit was served from, across the three kinds of client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Warehouse,
    StageReuse,
    QueryDirectory,
    Browser(Source),
    Write,
}

impl From<ServedFrom> for Served {
    fn from(s: ServedFrom) -> Served {
        match s {
            ServedFrom::Warehouse => Served::Warehouse,
            ServedFrom::StageReuse => Served::StageReuse,
            ServedFrom::QueryDirectory => Served::QueryDirectory,
        }
    }
}

/// A client's view of one answered edit.
pub struct Answer {
    /// `None` for writes.
    pub batch: Option<Batch>,
    pub served: Served,
    pub stage_hits: u64,
    pub rows_scanned: u64,
    pub queue_wait: Duration,
    /// Times the request was shed and retried after the server's hint.
    pub shed_retries: u64,
    /// The in-process outcome, where the client has one (decomposition
    /// reads the stage plan and shipped stage results from it).
    pub outcome: Option<QueryOutcome>,
    /// Query id and SQL text a wire answer carried (they count towards
    /// its response bytes).
    pub wire_text: Option<(String, String)>,
}

impl Answer {
    fn from_outcome(outcome: QueryOutcome) -> Answer {
        Answer {
            batch: Some(outcome.batch.clone()),
            served: outcome.served_from.into(),
            stage_hits: outcome.stage_hits as u64,
            rows_scanned: outcome.rows_scanned as u64,
            queue_wait: outcome.queue_wait,
            shed_retries: 0,
            outcome: Some(outcome),
            wire_text: None,
        }
    }

    fn write() -> Answer {
        Answer {
            batch: None,
            served: Served::Write,
            stage_hits: 0,
            rows_scanned: 0,
            queue_wait: Duration::ZERO,
            shed_retries: 0,
            outcome: None,
            wire_text: None,
        }
    }

    /// Whether the edit was served from where a correct system serves it.
    pub fn meets(&self, expect: Expect, flights_rows: u64) -> bool {
        match expect {
            Expect::Cold => {
                self.served != Served::QueryDirectory && self.rows_scanned >= flights_rows
            }
            Expect::Miss => matches!(self.served, Served::Warehouse | Served::StageReuse),
            Expect::StageReuse => self.served == Served::StageReuse && self.stage_hits > 0,
            Expect::DirectoryHit => self.served == Served::QueryDirectory,
            Expect::Tier(sources) => {
                matches!(self.served, Served::Browser(s) if sources.contains(&s))
            }
            Expect::Write => self.served == Served::Write,
        }
    }
}

/// One closed-loop user: submits an edit and blocks until the answer.
pub trait Client {
    /// Harness work an edit needs before it can be timed.
    fn prepare(&mut self, _edit: &Edit) {}

    /// Submit `edit`; the calls made on its behalf are recorded as spans
    /// under [`EDIT`] when the tracer is on.
    fn submit(&mut self, edit: &Edit, id: u64, t: &mut Tracer) -> Result<Answer, String>;

    /// Result-cache and stage-cache (hits, misses) of every tab this
    /// client opened; `None` for a client that is not a browser.
    fn browser_caches(&mut self) -> Option<((u64, u64), (u64, u64))> {
        None
    }
}

/// In-process `SigmaService` caller (`scenarios_cold`, `scan_1m`,
/// `augment_write_mix`).
pub struct ServiceClient<'a> {
    pub env: &'a Env,
}

impl Client for ServiceClient<'_> {
    fn submit(&mut self, edit: &Edit, id: u64, t: &mut Tracer) -> Result<Answer, String> {
        match &edit.op {
            Op::Query => {
                let json = t
                    .span(id, "core.to_json", EDIT, || edit.workbook.to_json())
                    .map_err(|e| e.to_string())?;
                let outcome = t.span(id, "service.run_query", EDIT, || {
                    self.env.run_query(&json, edit.element)
                })?;
                if edit.expect == Expect::Cold {
                    // Nothing may be served for free later: drop the
                    // persisted answer as soon as it is read.
                    self.env.warehouse.evict_result(&outcome.query_id);
                }
                Ok(Answer::from_outcome(outcome))
            }
            Op::Propagate => {
                t.span(id, "service.propagate_edits", EDIT, || self.env.write(edit))?;
                Ok(Answer::write())
            }
            Op::Upload(_) => {
                t.span(id, "service.upload_csv", EDIT, || self.env.write(edit))?;
                Ok(Answer::write())
            }
        }
    }
}

/// A browser tab (`tab_edit_session`); a fresh one per replay.
pub struct BrowserClient<'a> {
    env: &'a Env,
    tab: Option<BrowserSession>,
    /// Result-cache and stage-cache (hits, misses) of the tabs closed so
    /// far.
    cache: (u64, u64),
    stages: (u64, u64),
}

impl<'a> BrowserClient<'a> {
    pub fn new(env: &'a Env) -> BrowserClient<'a> {
        BrowserClient {
            env,
            tab: None,
            cache: (0, 0),
            stages: (0, 0),
        }
    }

    fn close_tab(&mut self) {
        if let Some(tab) = self.tab.take() {
            let (cache, stages) = (tab.cache.stats(), tab.local.stage_stats());
            self.cache = (self.cache.0 + cache.hits, self.cache.1 + cache.misses);
            self.stages = (self.stages.0 + stages.hits, self.stages.1 + stages.misses);
        }
    }
}

impl Client for BrowserClient<'_> {
    /// Closing the previous tab (and freeing its caches) is not part of
    /// the gesture that opens the next one.
    fn prepare(&mut self, edit: &Edit) {
        if edit.new_tab || self.tab.is_none() {
            self.close_tab();
            let mut tab =
                BrowserSession::new(self.env.service.clone(), self.env.token.clone(), CONNECTION);
            tab.prefetch_policy.max_stage_bytes = TAB_STAGE_BYTES;
            self.tab = Some(tab);
        }
    }

    fn browser_caches(&mut self) -> Option<((u64, u64), (u64, u64))> {
        self.close_tab();
        Some((self.cache, self.stages))
    }

    fn submit(&mut self, edit: &Edit, id: u64, t: &mut Tracer) -> Result<Answer, String> {
        let tab = self.tab.as_ref().ok_or("no tab is open")?;
        let out = t
            .span(id, "browser.query_element", EDIT, || {
                tab.query_element(&edit.workbook, edit.element)
            })
            .map_err(|e| e.to_string())?;
        Ok(Answer {
            batch: Some(out.batch),
            served: Served::Browser(out.source),
            ..Answer::write()
        })
    }
}

/// One `SigmaClient` session over loopback TCP (`wire_detail_pages`).
pub struct WireClient {
    pub session: SigmaClient,
}

impl WireClient {
    pub fn connect(env: &Env) -> Result<WireClient, String> {
        let addr = env
            .server
            .as_ref()
            .expect("wire workload has a server")
            .addr();
        let mut session = SigmaClient::connect(addr).map_err(|e| e.to_string())?;
        session.auth(&env.token).map_err(|e| e.to_string())?;
        session
            .open_session(CONNECTION)
            .map_err(|e| e.to_string())?;
        Ok(WireClient { session })
    }
}

impl Client for WireClient {
    fn submit(&mut self, edit: &Edit, id: u64, t: &mut Tracer) -> Result<Answer, String> {
        let json = t
            .span(id, "core.to_json", EDIT, || edit.workbook.to_json())
            .map_err(|e| e.to_string())?;
        let mut shed_retries = 0;
        let remote = t.span(id, "server.query_element", EDIT, || loop {
            match self
                .session
                .query_element(&json, edit.element, WirePriority::Interactive, None)
            {
                Ok(QueryReply::Ok(remote)) => break Ok(remote),
                // Shed requests are retried after the server's hint, as a
                // real client would; the wait stays inside the edit.
                Ok(QueryReply::Overloaded { retry_after }) => {
                    shed_retries += 1;
                    std::thread::sleep(retry_after);
                }
                Err(e) => break Err(e.to_string()),
            }
        })?;
        Ok(Answer {
            batch: Some(remote.batch),
            served: match remote.served_from.as_str() {
                "warehouse" => Served::Warehouse,
                "stage_reuse" => Served::StageReuse,
                _ => Served::QueryDirectory,
            },
            stage_hits: remote.stage_hits,
            rows_scanned: remote.rows_scanned,
            queue_wait: remote.queue_wait,
            shed_retries,
            outcome: None,
            wire_text: Some((remote.query_id, remote.sql)),
        })
    }
}
