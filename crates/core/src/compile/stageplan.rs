//! The **StagePlan DAG**: the compiler's output decomposed into cacheable
//! stages.
//!
//! Instead of treating a compiled element as one opaque SQL string, the
//! pipeline is exposed as a DAG with one node per CTE stage (`source`,
//! `base_k`, `lvl{n}_k`, `summary_k`, filter wraps, embedded elements) plus
//! a sink node for the final assembly. Each node carries
//!
//! * its own **canonical SQL** (the stage query printed standalone, with
//!   inputs referenced by their stage names),
//! * a **Merkle-style fingerprint**: a 128-bit hash of the stage's
//!   canonical SQL combined with its inputs' fingerprints, so an edit only
//!   perturbs fingerprints of stages downstream of the change, and
//! * the **warehouse tables** the stage reads directly (plus the
//!   transitive closure, for precise cache invalidation).
//!
//! Both caching tiers (§4) reuse stages through one walker,
//! [`StagePlan::walk`], over a [`StageHost`]: the service's keys its query
//! directory by fingerprint and re-reads stages via `RESULT_SCAN`; the
//! browser's keeps stage batches and runs the suffix on its embedded engine.

use std::collections::HashMap;
use std::fmt;

use sigma_sql::printer::print_query;
use sigma_sql::{Dialect, Query, SetExpr, TableRef};

/// A 128-bit content fingerprint (FNV-1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fingerprint {
    /// Hash raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fingerprint(h)
    }

    /// Extend this fingerprint with more bytes (order-sensitive).
    pub fn extend(self, bytes: &[u8]) -> Fingerprint {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fingerprint(h)
    }

    /// Lossless 32-hex-digit rendering (stable across runs/processes).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One cacheable stage of a compiled element.
#[derive(Debug, Clone)]
pub struct StageNode {
    /// CTE name inside the compiled query (`source`, `base_0`, ...); the
    /// sink (final assembly) is named [`StagePlan::SINK`].
    pub name: String,
    /// The stage query standalone: no CTE prologue; inputs are referenced
    /// by their stage names as if they were tables.
    pub query: Query,
    /// Canonical SQL of [`StageNode::query`] — the fingerprint's text input.
    pub sql: String,
    /// Indices (into [`StagePlan::nodes`]) of the stages this one reads.
    /// Always smaller than this node's own index (topological order).
    pub inputs: Vec<usize>,
    /// Warehouse tables this stage reads *directly* (lower-cased, deduped).
    pub tables: Vec<String>,
    /// Warehouse tables read by this stage or any transitive input.
    pub all_tables: Vec<String>,
    /// Merkle fingerprint: hash(sql, inputs' fingerprints).
    pub fingerprint: Fingerprint,
}

/// The compiled element as a DAG of cacheable stages, topologically
/// ordered; the last node is the sink (final assembly, carrying the
/// ORDER BY / LIMIT).
#[derive(Debug, Clone)]
pub struct StagePlan {
    pub nodes: Vec<StageNode>,
}

impl StagePlan {
    /// Name of the sink node (the final assembly select).
    pub const SINK: &'static str = "__sink";

    /// Decompose a compiled query (CTE prologue + final body) into the
    /// stage DAG. CTEs are already emitted in dependency order by the
    /// builder, so each stage only references earlier stages.
    pub fn from_query(query: &Query, dialect: &Dialect) -> StagePlan {
        let mut nodes: Vec<StageNode> = Vec::with_capacity(query.ctes.len() + 1);
        let mut index: HashMap<String, usize> = HashMap::new();
        for (name, cte) in &query.ctes {
            let node = build_node(name.clone(), cte.clone(), dialect, &index, &nodes);
            index.insert(name.to_ascii_lowercase(), nodes.len());
            nodes.push(node);
        }
        let sink_query = Query {
            ctes: Vec::new(),
            body: query.body.clone(),
            order_by: query.order_by.clone(),
            limit: query.limit,
            offset: query.offset,
        };
        let sink = build_node(Self::SINK.to_string(), sink_query, dialect, &index, &nodes);
        nodes.push(sink);
        StagePlan { nodes }
    }

    /// The sink node (always present).
    pub fn sink(&self) -> &StageNode {
        self.nodes.last().expect("plan has a sink")
    }

    /// The element's root fingerprint: the sink's Merkle hash. Two
    /// workbook states compile to the same root iff every stage matches.
    pub fn root_fingerprint(&self) -> Fingerprint {
        self.sink().fingerprint
    }

    /// Look up a node index by stage name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.name.eq_ignore_ascii_case(name))
    }

    /// Indices of every node that transitively depends on `idx` (excluding
    /// `idx` itself). Used by tests to check fingerprint isolation.
    pub fn downstream_of(&self, idx: usize) -> Vec<usize> {
        let mut tainted = vec![false; self.nodes.len()];
        tainted[idx] = true;
        for (i, node) in self.nodes.iter().enumerate().skip(idx + 1) {
            if node.inputs.iter().any(|&j| tainted[j]) {
                tainted[i] = true;
            }
        }
        (idx + 1..self.nodes.len())
            .filter(|&i| tainted[i])
            .collect()
    }

    /// Answer the sink with prefix reuse — the one stage walk of both
    /// caching tiers. Walking back from the sink, a needed interior stage
    /// the host can [`lookup`](StageHost::lookup) becomes a reuse frontier
    /// whose inputs are never visited; a needed stage the host cannot run
    /// ends the walk with `Ok(None)` before any work. The residual stages
    /// then execute in topological order over their inputs' results, and
    /// each executed interior stage is stored at once. The sink is never
    /// looked up or stored: its result is the caller's.
    pub fn walk<H: StageHost>(&self, host: &mut H) -> Result<Option<WalkOutcome<H::Out>>, H::Err> {
        let sink = self.nodes.len() - 1;
        let mut steps = vec![StageStep::Skip; sink + 1];
        let mut results: Vec<Option<H::Out>> = self.nodes.iter().map(|_| None).collect();
        let mut needed = vec![false; sink + 1];
        needed[sink] = true;
        for (idx, node) in self.nodes.iter().enumerate().rev() {
            if !needed[idx] {
                continue;
            }
            results[idx] = if idx == sink { None } else { host.lookup(node) };
            if results[idx].is_some() {
                steps[idx] = StageStep::Reuse;
                continue;
            }
            if !host.can_execute(node) {
                return Ok(None);
            }
            steps[idx] = StageStep::Execute;
            for &input in &node.inputs {
                needed[input] = true;
            }
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            if steps[idx] != StageStep::Execute {
                continue;
            }
            let resolved = |i: usize| results[i].as_ref().expect("input stage resolved");
            let inputs: Vec<(&StageNode, &H::Out)> = node
                .inputs
                .iter()
                .map(|&i| (&self.nodes[i], resolved(i)))
                .collect();
            let out = host.execute(node, &inputs)?;
            if idx != sink {
                host.store(node, &out);
            }
            results[idx] = Some(out);
        }
        let sink = results[sink].take().expect("sink executed");
        Ok(Some(WalkOutcome { sink, steps }))
    }
}

/// Where stage results live for [`StagePlan::walk`]: query ids of
/// persisted CDW results in the service directory, or batches in the
/// browser's stage cache.
pub trait StageHost {
    type Out;
    type Err;
    /// A usable cached result for an interior stage.
    fn lookup(&mut self, node: &StageNode) -> Option<Self::Out>;
    /// Whether `node` can run here.
    fn can_execute(&mut self, node: &StageNode) -> bool;
    /// Run `node` over its inputs' results, in `node.inputs` order.
    fn execute(
        &mut self,
        node: &StageNode,
        inputs: &[(&StageNode, &Self::Out)],
    ) -> Result<Self::Out, Self::Err>;
    /// Keep an executed interior stage's result for later edits.
    fn store(&mut self, node: &StageNode, out: &Self::Out);
}

/// What a walk did with one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStep {
    /// Behind the reuse frontier (or unreachable): never touched.
    Skip,
    Reuse,
    Execute,
}

/// A finished walk: the sink's result and one step per node, in node order.
#[derive(Debug)]
pub struct WalkOutcome<T> {
    pub sink: T,
    pub steps: Vec<StageStep>,
}

impl<T> WalkOutcome<T> {
    /// How many stages took `step` (the sink counts as executed).
    pub fn count(&self, step: StageStep) -> usize {
        self.steps.iter().filter(|&&s| s == step).count()
    }
}

fn build_node(
    name: String,
    query: Query,
    dialect: &Dialect,
    index: &HashMap<String, usize>,
    nodes: &[StageNode],
) -> StageNode {
    let mut inputs: Vec<usize> = Vec::new();
    let mut tables: Vec<String> = Vec::new();
    collect_refs(&query, index, &mut inputs, &mut tables);
    inputs.sort_unstable();
    inputs.dedup();
    tables.sort();
    tables.dedup();
    let mut all_tables = tables.clone();
    for &i in &inputs {
        all_tables.extend(nodes[i].all_tables.iter().cloned());
    }
    all_tables.sort();
    all_tables.dedup();
    let sql = print_query(&query, dialect);
    // Merkle combine: the stage's own canonical text, then each input's
    // (name, fingerprint) pair in reference order. Input names are part of
    // the stage SQL already, but hashing them again keeps the combination
    // unambiguous if SQL text ever collides across naming schemes.
    let mut fp = Fingerprint::of_bytes(sql.as_bytes());
    for &i in &inputs {
        fp = fp.extend(nodes[i].name.as_bytes());
        fp = fp.extend(&nodes[i].fingerprint.0.to_le_bytes());
    }
    StageNode {
        name,
        query,
        sql,
        inputs,
        tables,
        all_tables,
        fingerprint: fp,
    }
}

/// Walk a query for `FROM`/`JOIN` relations, splitting references into
/// earlier stages (CTE names) and warehouse tables.
fn collect_refs(
    query: &Query,
    index: &HashMap<String, usize>,
    inputs: &mut Vec<usize>,
    tables: &mut Vec<String>,
) {
    // Stage queries are emitted with an empty CTE prologue, but walk any
    // nested prologue defensively (raw-SQL sources may carry their own
    // WITH clauses, whose local names shadow nothing here).
    for (_, cte) in &query.ctes {
        collect_refs(cte, index, inputs, tables);
    }
    collect_refs_in_set(&query.body, index, inputs, tables);
}

fn collect_refs_in_set(
    body: &SetExpr,
    index: &HashMap<String, usize>,
    inputs: &mut Vec<usize>,
    tables: &mut Vec<String>,
) {
    match body {
        SetExpr::Select(s) => {
            let mut visit = |t: &TableRef| match t {
                TableRef::Table { name, .. } => {
                    let dotted = name.to_dotted().to_ascii_lowercase();
                    if name.0.len() == 1 {
                        if let Some(&i) = index.get(&dotted) {
                            inputs.push(i);
                            return;
                        }
                    }
                    tables.push(dotted);
                }
                TableRef::Subquery { query, .. } => collect_refs(query, index, inputs, tables),
                TableRef::Function { .. } => {}
            };
            if let Some(from) = &s.from {
                visit(from);
            }
            for j in &s.joins {
                visit(&j.relation);
            }
        }
        SetExpr::UnionAll(l, r) => {
            collect_refs_in_set(l, index, inputs, tables);
            collect_refs_in_set(r, index, inputs, tables);
        }
        SetExpr::Values(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let a = Fingerprint::of_bytes(b"SELECT 1");
        let b = Fingerprint::of_bytes(b"SELECT 1");
        assert_eq!(a, b);
        assert_ne!(a, Fingerprint::of_bytes(b"SELECT 2"));
        assert_ne!(a.extend(b"x").extend(b"y"), a.extend(b"y").extend(b"x"));
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn decomposes_ctes_and_tracks_tables() {
        let q = sigma_sql::parse_query(
            "WITH source AS (SELECT a FROM warehouse_t), \
                  base_0 AS (SELECT a FROM source) \
             SELECT a FROM base_0 ORDER BY a",
        )
        .unwrap();
        let plan = StagePlan::from_query(&q, &Dialect::generic());
        assert_eq!(plan.nodes.len(), 3);
        assert_eq!(plan.nodes[0].name, "source");
        assert_eq!(plan.nodes[0].tables, vec!["warehouse_t"]);
        assert!(plan.nodes[0].inputs.is_empty());
        assert_eq!(plan.nodes[1].inputs, vec![0]);
        assert!(plan.nodes[1].tables.is_empty());
        assert_eq!(plan.nodes[1].all_tables, vec!["warehouse_t"]);
        let sink = plan.sink();
        assert_eq!(sink.name, StagePlan::SINK);
        assert_eq!(sink.inputs, vec![1]);
        assert_eq!(sink.all_tables, vec!["warehouse_t"]);
    }

    #[test]
    fn upstream_edit_moves_downstream_fingerprints_only() {
        let before = sigma_sql::parse_query(
            "WITH source AS (SELECT a FROM t), \
                  base_0 AS (SELECT a FROM source WHERE a > 1) \
             SELECT a FROM base_0",
        )
        .unwrap();
        let after = sigma_sql::parse_query(
            "WITH source AS (SELECT a FROM t), \
                  base_0 AS (SELECT a FROM source WHERE a > 2) \
             SELECT a FROM base_0",
        )
        .unwrap();
        let p1 = StagePlan::from_query(&before, &Dialect::generic());
        let p2 = StagePlan::from_query(&after, &Dialect::generic());
        // source untouched; base_0 and the sink move.
        assert_eq!(p1.nodes[0].fingerprint, p2.nodes[0].fingerprint);
        assert_ne!(p1.nodes[1].fingerprint, p2.nodes[1].fingerprint);
        assert_ne!(p1.root_fingerprint(), p2.root_fingerprint());
        assert_eq!(p1.downstream_of(1), vec![2]);
    }

    /// A host whose cache is a set of stage names; it records every call
    /// and answers each execution with `name(input, ...)`.
    #[derive(Default)]
    struct FakeHost {
        cached: Vec<&'static str>,
        cannot_run: Option<&'static str>,
        fail_on: Option<&'static str>,
        calls: Vec<String>,
    }

    impl StageHost for FakeHost {
        type Out = String;
        type Err = String;
        fn lookup(&mut self, node: &StageNode) -> Option<String> {
            self.calls.push(format!("lookup {}", node.name));
            self.cached
                .contains(&node.name.as_str())
                .then(|| format!("cached {}", node.name))
        }
        fn can_execute(&mut self, node: &StageNode) -> bool {
            self.cannot_run != Some(node.name.as_str())
        }
        fn execute(
            &mut self,
            node: &StageNode,
            inputs: &[(&StageNode, &String)],
        ) -> Result<String, String> {
            self.calls.push(format!("execute {}", node.name));
            if self.fail_on == Some(node.name.as_str()) {
                return Err(format!("{} failed", node.name));
            }
            let args: Vec<&str> = inputs.iter().map(|(_, out)| out.as_str()).collect();
            Ok(format!("{}({})", node.name, args.join(", ")))
        }
        fn store(&mut self, node: &StageNode, out: &String) {
            self.calls.push(format!("store {} = {out}", node.name));
        }
    }

    /// `raw → source → {lo, hi} → sink`: a diamond whose shared input
    /// `source` both branches read.
    fn diamond() -> StagePlan {
        let q = sigma_sql::parse_query(
            "WITH raw AS (SELECT a FROM t), \
                  source AS (SELECT a FROM raw), \
                  lo AS (SELECT a FROM source WHERE a < 5), \
                  hi AS (SELECT a FROM source WHERE a > 5) \
             SELECT lo.a FROM lo JOIN hi ON lo.a = hi.a",
        )
        .unwrap();
        let plan = StagePlan::from_query(&q, &Dialect::generic());
        let names: Vec<&str> = plan.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["raw", "source", "lo", "hi", StagePlan::SINK]);
        plan
    }

    #[test]
    fn walk_reuses_the_deepest_frontier_once_and_stores_each_executed_stage() {
        use StageStep::*;
        let plan = diamond();
        let mut host = FakeHost {
            cached: vec!["source"],
            ..FakeHost::default()
        };
        let outcome = plan.walk(&mut host).unwrap().expect("every stage can run");
        // The frontier lands on the shared input: `raw` behind it is never
        // touched, and `source` is looked up once although both branches
        // read it.
        assert_eq!(outcome.steps, [Skip, Reuse, Execute, Execute, Execute]);
        assert_eq!((outcome.count(Reuse), outcome.count(Execute)), (1, 3));
        assert_eq!(outcome.sink, "__sink(lo(cached source), hi(cached source))");
        // The sink is never looked up or stored; each executed interior
        // stage is stored once, right after it runs.
        assert_eq!(
            host.calls,
            [
                "lookup hi",
                "lookup lo",
                "lookup source",
                "execute lo",
                "store lo = lo(cached source)",
                "execute hi",
                "store hi = hi(cached source)",
                "execute __sink",
            ]
        );
    }

    #[test]
    fn walk_stops_before_any_work_when_a_needed_stage_cannot_run() {
        let plan = diamond();
        let mut host = FakeHost {
            cannot_run: Some("raw"),
            ..FakeHost::default()
        };
        assert!(matches!(plan.walk(&mut host), Ok(None)));
        assert_eq!(
            host.calls,
            ["lookup hi", "lookup lo", "lookup source", "lookup raw"]
        );
        // A frontier above the stage that cannot run makes it unneeded.
        let mut host = FakeHost {
            cached: vec!["source"],
            cannot_run: Some("raw"),
            ..FakeHost::default()
        };
        assert!(plan.walk(&mut host).unwrap().is_some());
    }

    #[test]
    fn walk_stops_at_the_first_execute_error_storing_nothing_after_it() {
        let plan = diamond();
        let mut host = FakeHost {
            cached: vec!["source"],
            fail_on: Some("hi"),
            ..FakeHost::default()
        };
        assert_eq!(plan.walk(&mut host).unwrap_err(), "hi failed");
        assert_eq!(
            host.calls,
            [
                "lookup hi",
                "lookup lo",
                "lookup source",
                "execute lo",
                "store lo = lo(cached source)",
                "execute hi",
            ]
        );
    }
}
