//! Name resolution and logical planning: `sigma_sql` AST → [`Plan`].
//!
//! The planner performs the SQL semantic analysis the compiler's output
//! relies on: scope construction over FROM/JOIN trees, aggregate rewriting
//! (GROUP BY + HAVING), window extraction (including QUALIFY), wildcard
//! expansion, alias-aware ORDER BY (with hidden sort columns when ordering
//! by non-projected expressions), and VALUES const evaluation.

use std::collections::HashMap;
use std::sync::Arc;

use sigma_sql::{JoinKind, OrderExpr, Query, Select, SelectItem, SetExpr, SqlExpr, TableRef};
use sigma_value::{Batch, ColumnBuilder, DataType, Field, Schema, Value};

use crate::catalog::Catalog;
use crate::error::CdwError;
use crate::eval::{self, EvalCtx, PhysExpr, ScalarFunc};
use crate::plan::{AggCall, AggFunc, AggMode, Plan, SortSpec, WinFunc, WindowCall};

/// Equi-join decomposition: (left keys, right keys, residual predicate).
type JoinKeySplit = (Vec<PhysExpr>, Vec<PhysExpr>, Option<PhysExpr>);

/// Resolution context: an ordered list of (binding name, schema) pairs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    bindings: Vec<(String, Arc<Schema>)>,
}

impl Scope {
    /// The scope of one relation — a table reference, or the target table
    /// of an UPDATE/DELETE.
    pub(crate) fn single(name: impl Into<String>, schema: Arc<Schema>) -> Scope {
        Scope {
            bindings: vec![(name.into(), schema)],
        }
    }

    fn width(&self) -> usize {
        self.bindings.iter().map(|(_, s)| s.len()).sum()
    }

    fn push(&mut self, name: impl Into<String>, schema: Arc<Schema>) {
        self.bindings.push((name.into(), schema));
    }

    /// Resolve a column to (global ordinal, type).
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<(usize, DataType), CdwError> {
        let mut offset = 0;
        let mut found: Option<(usize, DataType)> = None;
        for (binding, schema) in &self.bindings {
            if let Some(t) = table {
                if !binding.eq_ignore_ascii_case(t) {
                    offset += schema.len();
                    continue;
                }
            }
            if let Some(i) = schema.index_of(name) {
                if found.is_some() {
                    return Err(CdwError::plan(format!("ambiguous column: {name}")));
                }
                found = Some((offset + i, schema.field(i).dtype));
            } else if let Some(t) = table {
                return Err(CdwError::plan(format!("column {name} not found in {t}")));
            }
            offset += schema.len();
        }
        found.ok_or_else(|| CdwError::plan(format!("column not found: {name}")))
    }

    /// All columns in scope order: (binding, field name, global ordinal).
    fn all_columns(&self) -> Vec<(String, String, usize)> {
        let mut out = Vec::new();
        let mut offset = 0;
        for (binding, schema) in &self.bindings {
            for (i, f) in schema.fields().iter().enumerate() {
                out.push((binding.clone(), f.name.clone(), offset + i));
            }
            offset += schema.len();
        }
        out
    }

    fn types(&self) -> Vec<DataType> {
        self.bindings
            .iter()
            .flat_map(|(_, s)| s.fields().iter().map(|f| f.dtype))
            .collect()
    }
}

/// Planner over a catalog plus the persisted-result directory (for
/// `RESULT_SCAN` schemas).
pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    pub results: &'a HashMap<String, Batch>,
}

const AGG_NAMES: &[(&str, AggFunc)] = &[
    ("COUNT", AggFunc::Count),
    ("SUM", AggFunc::Sum),
    ("AVG", AggFunc::Avg),
    ("MIN", AggFunc::Min),
    ("MAX", AggFunc::Max),
    ("MEDIAN", AggFunc::Median),
    ("STDDEV", AggFunc::StdDev),
    ("STDDEV_SAMP", AggFunc::StdDev),
    ("VARIANCE", AggFunc::Variance),
    ("VAR_SAMP", AggFunc::Variance),
    ("ATTR", AggFunc::Attr),
    ("ANY_VALUE", AggFunc::Attr),
];

fn agg_func_for(name: &str) -> Option<AggFunc> {
    let upper = name.to_ascii_uppercase();
    if upper == "PERCENTILE_CONT" {
        // Fraction filled in at build time from the literal second arg.
        return Some(AggFunc::Percentile(0.5));
    }
    AGG_NAMES
        .iter()
        .find(|(n, _)| *n == upper)
        .map(|(_, f)| f.clone())
}

fn win_func_for(name: &str) -> Option<WinFunc> {
    let upper = name.to_ascii_uppercase();
    Some(match upper.as_str() {
        "ROW_NUMBER" => WinFunc::RowNumber,
        "RANK" => WinFunc::Rank,
        "DENSE_RANK" => WinFunc::DenseRank,
        "NTILE" => WinFunc::Ntile,
        "LAG" => WinFunc::Lag,
        "LEAD" => WinFunc::Lead,
        "FIRST_VALUE" => WinFunc::FirstValue,
        "LAST_VALUE" => WinFunc::LastValue,
        "NTH_VALUE" => WinFunc::NthValue,
        _ => WinFunc::Agg(agg_func_for(&upper)?),
    })
}

impl<'a> Planner<'a> {
    pub fn new(catalog: &'a Catalog, results: &'a HashMap<String, Batch>) -> Planner<'a> {
        Planner { catalog, results }
    }

    /// Plan a full query with `inputs` bound as relations: a single-part
    /// table reference naming one (case-insensitively) reads that batch as
    /// a [`Plan::Values`] leaf, exactly as it would a CTE of that name, so
    /// a bound input shadows a catalog table. Binding clones the batch —
    /// O(columns) reference bumps, no row is copied.
    pub fn plan_query(&self, query: &Query, inputs: &[(&str, &Batch)]) -> Result<Plan, CdwError> {
        let bound = inputs
            .iter()
            .map(|&(name, batch)| {
                let batch = batch.clone();
                (name.to_ascii_lowercase(), Plan::Values { batch })
            })
            .collect();
        self.plan_query_env(query, &bound)
    }

    fn plan_query_env(
        &self,
        query: &Query,
        outer_ctes: &HashMap<String, Plan>,
    ) -> Result<Plan, CdwError> {
        let mut ctes = outer_ctes.clone();
        for (name, cte_query) in &query.ctes {
            let plan = self.plan_query_env(cte_query, &ctes)?;
            ctes.insert(name.to_ascii_lowercase(), plan);
        }
        let mut plan = match &query.body {
            SetExpr::Select(select) => self.plan_select(select, &query.order_by, &ctes)?,
            SetExpr::UnionAll(_, _) => {
                let mut inputs = Vec::new();
                flatten_union(&query.body, &mut inputs);
                let plans: Vec<Plan> = inputs
                    .iter()
                    .map(|s| match s {
                        SetExpr::Select(sel) => self.plan_select(sel, &[], &ctes),
                        SetExpr::Values(rows) => self.plan_values(rows),
                        SetExpr::UnionAll(_, _) => unreachable!("flattened"),
                    })
                    .collect::<Result<_, _>>()?;
                let unioned = plan_union(plans)?;
                // ORDER BY on a union resolves against the union schema.
                self.apply_order(unioned, &query.order_by)?
            }
            SetExpr::Values(rows) => {
                let v = self.plan_values(rows)?;
                self.apply_order(v, &query.order_by)?
            }
        };
        if query.limit.is_some() || query.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: query.limit,
                offset: query.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    /// Sort by output-schema column references only (used for UNION/VALUES).
    fn apply_order(&self, plan: Plan, order_by: &[OrderExpr]) -> Result<Plan, CdwError> {
        if order_by.is_empty() {
            return Ok(plan);
        }
        let scope = Scope::single("", plan.schema());
        let keys = order_by
            .iter()
            .map(|o| {
                Ok(SortSpec {
                    expr: self.resolve(&o.expr, &scope)?,
                    descending: o.descending,
                    nulls_last: o.nulls_last,
                })
            })
            .collect::<Result<Vec<_>, CdwError>>()?;
        Ok(Plan::Sort {
            input: Box::new(plan),
            keys,
        })
    }

    fn plan_values(&self, rows: &[Vec<SqlExpr>]) -> Result<Plan, CdwError> {
        if rows.is_empty() {
            return Err(CdwError::plan("VALUES requires at least one row"));
        }
        let ncols = rows[0].len();
        let mut values: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != ncols {
                return Err(CdwError::plan("VALUES rows have differing arity"));
            }
            values.push(
                row.iter()
                    .map(|e| self.const_eval(e))
                    .collect::<Result<_, _>>()?,
            );
        }
        // Infer each column type from the first non-null value.
        let mut fields = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let mut dtype = None;
            for row in &values {
                if let Some(t) = row[c].dtype() {
                    dtype = Some(match dtype {
                        None => t,
                        Some(prev) => DataType::unify(prev, t).ok_or_else(|| {
                            CdwError::plan(format!("VALUES column {} mixes types", c + 1))
                        })?,
                    });
                }
            }
            fields.push(Field::new(
                format!("column{}", c + 1),
                dtype.unwrap_or(DataType::Text),
            ));
        }
        let schema = Arc::new(Schema::new(fields));
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, values.len()))
            .collect();
        for row in &values {
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v.clone()).map_err(CdwError::from)?;
            }
        }
        let batch = Batch::new(schema, builders.into_iter().map(|b| b.finish()).collect())?;
        Ok(Plan::Values { batch })
    }

    /// Evaluate a constant expression (no column references).
    pub fn const_eval(&self, expr: &SqlExpr) -> Result<Value, CdwError> {
        let phys = self.resolve(expr, &Scope::default())?;
        let schema = Arc::new(Schema::new(vec![Field::new("$const", DataType::Int)]));
        let batch = Batch::new(schema, vec![sigma_value::Column::from_ints(vec![0])])?;
        let col = eval::eval(&phys, &batch, &EvalCtx::default())?;
        Ok(col.value(0))
    }

    // ------------------------------------------------------------------
    // SELECT planning
    // ------------------------------------------------------------------

    fn plan_select(
        &self,
        select: &Select,
        order_by: &[OrderExpr],
        ctes: &HashMap<String, Plan>,
    ) -> Result<Plan, CdwError> {
        // 1. FROM / JOINs.
        let (mut plan, mut scope) = match &select.from {
            Some(t) => self.plan_table_ref(t, ctes)?,
            None => {
                // SELECT without FROM: one synthetic row.
                let schema = Arc::new(Schema::new(vec![Field::new("$dual", DataType::Int)]));
                let batch = Batch::new(
                    schema.clone(),
                    vec![sigma_value::Column::from_ints(vec![0])],
                )?;
                (Plan::Values { batch }, Scope::single("$dual", schema))
            }
        };
        for join in &select.joins {
            let (right_plan, right_scope) = self.plan_table_ref(&join.relation, ctes)?;
            let left_width = scope.width();
            // Scope for the ON clause covers both sides.
            let mut joined_scope = scope.clone();
            for (b, s) in &right_scope.bindings {
                joined_scope.push(b.clone(), s.clone());
            }
            let (left_keys, right_keys, residual) = match &join.on {
                None => (Vec::new(), Vec::new(), None),
                Some(on) => self.split_join_keys(on, &joined_scope, left_width)?,
            };
            if join.kind != JoinKind::Cross && left_keys.is_empty() && residual.is_none() {
                return Err(CdwError::plan("join requires an ON condition"));
            }
            let schema = join_output_schema(&plan.schema(), &right_plan.schema());
            plan = Plan::Join {
                left: Box::new(plan),
                right: Box::new(right_plan),
                kind: join.kind,
                left_keys,
                right_keys,
                residual,
                schema,
            };
            scope = joined_scope;
        }

        // 2. WHERE.
        if let Some(selection) = &select.selection {
            let predicate = self.resolve(selection, &scope)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // Expand wildcards now so later rewriting sees concrete exprs.
        let mut projection: Vec<(SqlExpr, Option<String>)> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for (binding, name, _) in scope.all_columns() {
                        if name.starts_with('$') {
                            continue; // synthetic dual column
                        }
                        projection.push((
                            SqlExpr::Column {
                                table: Some(binding),
                                name: name.clone(),
                            },
                            Some(name),
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    projection.push((expr.clone(), alias.clone()));
                }
            }
        }
        if projection.is_empty() {
            return Err(CdwError::plan("SELECT list is empty"));
        }
        // Output names derive from the pre-rewrite expressions (aggregate
        // and window rewriting replaces them with #agg/#win placeholders).
        let base_names: Vec<String> = projection
            .iter()
            .enumerate()
            .map(|(i, (e, alias))| {
                alias.clone().unwrap_or_else(|| match e {
                    SqlExpr::Column { name, .. } => name.clone(),
                    _ => format!("col_{}", i + 1),
                })
            })
            .collect();

        let mut having = select.having.clone();
        let mut qualify = select.qualify.clone();
        let mut order_exprs: Vec<OrderExpr> = order_by.to_vec();

        // 3. Aggregation.
        let needs_agg = !select.group_by.is_empty()
            || projection.iter().any(|(e, _)| contains_agg(e))
            || having.as_ref().is_some_and(contains_agg);
        if needs_agg {
            // Collect distinct aggregate subtrees from every outer expr.
            let mut agg_subtrees: Vec<SqlExpr> = Vec::new();
            for (e, _) in &projection {
                collect_aggs(e, &mut agg_subtrees);
            }
            if let Some(h) = &having {
                collect_aggs(h, &mut agg_subtrees);
            }
            if let Some(q) = &qualify {
                collect_aggs(q, &mut agg_subtrees);
            }
            for o in &order_exprs {
                collect_aggs(&o.expr, &mut agg_subtrees);
            }

            let groups: Vec<PhysExpr> = select
                .group_by
                .iter()
                .map(|g| self.resolve(g, &scope))
                .collect::<Result<_, _>>()?;
            let aggs: Vec<AggCall> = agg_subtrees
                .iter()
                .map(|a| self.build_agg_call(a, &scope))
                .collect::<Result<_, _>>()?;

            // Aggregate output schema: _g0.. then _a0..
            let input_types = scope.types();
            let mut fields = Vec::new();
            for (i, g) in groups.iter().enumerate() {
                let t = eval::infer_type(g, &input_types)?.unwrap_or(DataType::Text);
                fields.push(Field::new(format!("_g{i}"), t));
            }
            for (i, a) in aggs.iter().enumerate() {
                let arg_t = match &a.arg {
                    Some(e) => eval::infer_type(e, &input_types)?,
                    None => None,
                };
                fields.push(Field::new(format!("_a{i}"), a.func.output_type(arg_t)));
            }
            let agg_schema = Arc::new(Schema::new(fields));
            plan = Plan::Aggregate {
                input: Box::new(plan),
                groups,
                aggs,
                schema: agg_schema.clone(),
                mode: AggMode::Single,
            };

            // Rewrite outer expressions to reference the aggregate output.
            let mut mapping: Vec<(SqlExpr, SqlExpr)> = Vec::new();
            for (i, g) in select.group_by.iter().enumerate() {
                mapping.push((
                    g.clone(),
                    SqlExpr::Column {
                        table: Some("#agg".into()),
                        name: format!("_g{i}"),
                    },
                ));
            }
            for (i, a) in agg_subtrees.iter().enumerate() {
                mapping.push((
                    a.clone(),
                    SqlExpr::Column {
                        table: Some("#agg".into()),
                        name: format!("_a{i}"),
                    },
                ));
            }
            for (e, _) in &mut projection {
                *e = replace_subtrees(e, &mapping);
            }
            if let Some(h) = &mut having {
                *h = replace_subtrees(h, &mapping);
            }
            if let Some(q) = &mut qualify {
                *q = replace_subtrees(q, &mapping);
            }
            for o in &mut order_exprs {
                o.expr = replace_subtrees(&o.expr, &mapping);
            }
            scope = Scope::single("#agg", agg_schema);

            if let Some(h) = having.take() {
                let predicate = self.resolve(&h, &scope)?;
                plan = Plan::Filter {
                    input: Box::new(plan),
                    predicate,
                };
            }
        } else if select.having.is_some() {
            return Err(CdwError::plan("HAVING without aggregation"));
        }

        // 4. Window functions.
        let mut win_subtrees: Vec<SqlExpr> = Vec::new();
        for (e, _) in &projection {
            collect_windows(e, &mut win_subtrees);
        }
        if let Some(q) = &qualify {
            collect_windows(q, &mut win_subtrees);
        }
        for o in &order_exprs {
            collect_windows(&o.expr, &mut win_subtrees);
        }
        if !win_subtrees.is_empty() {
            let input_types = scope.types();
            let calls: Vec<WindowCall> = win_subtrees
                .iter()
                .map(|w| self.build_window_call(w, &scope))
                .collect::<Result<_, _>>()?;
            let mut win_fields = Vec::new();
            for (i, c) in calls.iter().enumerate() {
                let t = window_output_type(c, &input_types)?;
                win_fields.push(Field::new(format!("_w{i}"), t));
            }
            let win_fragment = Arc::new(Schema::new(win_fields));
            // Full window output schema = input fields + fragment.
            let mut all_fields: Vec<Field> = plan.schema().fields().to_vec();
            let mut suffix = 0;
            for f in win_fragment.fields() {
                let mut name = f.name.clone();
                while all_fields
                    .iter()
                    .any(|x| x.name.eq_ignore_ascii_case(&name))
                {
                    suffix += 1;
                    name = format!("{} ({suffix})", f.name);
                }
                all_fields.push(Field::new(name, f.dtype));
            }
            let win_schema = Arc::new(Schema::new(all_fields));
            plan = Plan::Window {
                input: Box::new(plan),
                calls,
                schema: win_schema,
            };
            let mut mapping: Vec<(SqlExpr, SqlExpr)> = Vec::new();
            for (i, w) in win_subtrees.iter().enumerate() {
                mapping.push((
                    w.clone(),
                    SqlExpr::Column {
                        table: Some("#win".into()),
                        name: format!("_w{i}"),
                    },
                ));
            }
            for (e, _) in &mut projection {
                *e = replace_subtrees(e, &mapping);
            }
            if let Some(q) = &mut qualify {
                *q = replace_subtrees(q, &mapping);
            }
            for o in &mut order_exprs {
                o.expr = replace_subtrees(&o.expr, &mapping);
            }
            scope.push("#win", win_fragment);
        }

        // 5. QUALIFY.
        if let Some(q) = qualify.take() {
            let predicate = self.resolve(&q, &scope)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // 6. Projection.
        let input_types = scope.types();
        let mut out_fields: Vec<Field> = Vec::new();
        let mut out_exprs: Vec<PhysExpr> = Vec::new();
        for (i, (e, _alias)) in projection.iter().enumerate() {
            let phys = self.resolve(e, &scope)?;
            let dtype = eval::infer_type(&phys, &input_types)?.unwrap_or(DataType::Text);
            let base_name = base_names[i].clone();
            let mut name = base_name.clone();
            let mut suffix = 2;
            while out_fields
                .iter()
                .any(|f| f.name.eq_ignore_ascii_case(&name))
            {
                name = format!("{base_name} ({suffix})");
                suffix += 1;
            }
            out_fields.push(Field::new(name, dtype));
            out_exprs.push(phys);
        }

        // 7. ORDER BY: resolve against output names first, hidden columns
        // for anything else.
        let out_schema = Arc::new(Schema::new(out_fields.clone()));
        let mut sort_keys: Vec<SortSpec> = Vec::new();
        let mut hidden: Vec<(PhysExpr, DataType)> = Vec::new();
        for o in &order_exprs {
            let out_scope = Scope::single("", out_schema.clone());
            match self.resolve(&o.expr, &out_scope) {
                Ok(expr) => sort_keys.push(SortSpec {
                    expr,
                    descending: o.descending,
                    nulls_last: o.nulls_last,
                }),
                Err(_) => {
                    // Hidden sort column evaluated over the input scope.
                    let phys = self.resolve(&o.expr, &scope)?;
                    let dtype = eval::infer_type(&phys, &input_types)?.unwrap_or(DataType::Text);
                    let idx = out_schema.len() + hidden.len();
                    hidden.push((phys, dtype));
                    sort_keys.push(SortSpec {
                        expr: PhysExpr::Col(idx),
                        descending: o.descending,
                        nulls_last: o.nulls_last,
                    });
                }
            }
        }

        let visible = out_exprs.len();
        let mut proj_fields = out_fields;
        let mut proj_exprs = out_exprs;
        for (i, (e, t)) in hidden.iter().enumerate() {
            proj_fields.push(Field::new(format!("$sort{i}"), *t));
            proj_exprs.push(e.clone());
        }
        let proj_schema = Arc::new(Schema::new(proj_fields));
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: proj_exprs,
            schema: proj_schema.clone(),
        };

        if select.distinct {
            if !hidden.is_empty() {
                return Err(CdwError::plan(
                    "ORDER BY expressions must appear in the select list when DISTINCT is used",
                ));
            }
            plan = Plan::Distinct {
                input: Box::new(plan),
                mode: AggMode::Single,
            };
        }

        if !sort_keys.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }

        if !hidden.is_empty() {
            // Drop hidden sort columns.
            let exprs: Vec<PhysExpr> = (0..visible).map(PhysExpr::Col).collect();
            plan = Plan::Project {
                input: Box::new(plan),
                exprs,
                schema: out_schema,
            };
        }
        Ok(plan)
    }

    fn plan_table_ref(
        &self,
        t: &TableRef,
        ctes: &HashMap<String, Plan>,
    ) -> Result<(Plan, Scope), CdwError> {
        match t {
            TableRef::Table { name, alias } => {
                let base = name.base();
                let binding = alias.clone().unwrap_or_else(|| base.to_string());
                if name.0.len() == 1 {
                    if let Some(cte) = ctes.get(&base.to_ascii_lowercase()) {
                        let plan = cte.clone();
                        let schema = plan.schema();
                        return Ok((plan, Scope::single(binding, schema)));
                    }
                }
                let table = self.catalog.get(&name.to_dotted())?;
                let schema = table.schema().clone();
                Ok((
                    Plan::Scan {
                        table: name.to_dotted(),
                        schema: schema.clone(),
                    },
                    Scope::single(binding, schema),
                ))
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.plan_query_env(query, ctes)?;
                let schema = plan.schema();
                Ok((plan, Scope::single(alias.clone(), schema)))
            }
            TableRef::Function { name, args, alias } => {
                if !name.eq_ignore_ascii_case("RESULT_SCAN") {
                    return Err(CdwError::plan(format!("unknown table function {name}")));
                }
                let id = match args.first() {
                    Some(SqlExpr::Literal(Value::Text(s))) => s.clone(),
                    _ => return Err(CdwError::plan("RESULT_SCAN expects a query id string")),
                };
                let batch = self.results.get(&id).ok_or_else(|| {
                    CdwError::catalog(format!("persisted result not found: {id}"))
                })?;
                let schema = batch.schema().clone();
                let binding = alias.clone().unwrap_or_else(|| "result".to_string());
                Ok((
                    Plan::ResultScan {
                        id,
                        schema: schema.clone(),
                    },
                    Scope::single(binding, schema),
                ))
            }
        }
    }

    /// Split an ON conjunction into hash keys and a residual predicate.
    fn split_join_keys(
        &self,
        on: &SqlExpr,
        joined_scope: &Scope,
        left_width: usize,
    ) -> Result<JoinKeySplit, CdwError> {
        let mut conjuncts = Vec::new();
        split_conjuncts(on, &mut conjuncts);
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual: Vec<PhysExpr> = Vec::new();
        for c in conjuncts {
            if let SqlExpr::Binary {
                op: sigma_sql::SqlBinaryOp::Eq,
                left,
                right,
            } = c
            {
                let l = self.resolve(left, joined_scope)?;
                let r = self.resolve(right, joined_scope)?;
                let side = |e: &PhysExpr| {
                    let mut cols = Vec::new();
                    e.columns_used(&mut cols);
                    if cols.iter().all(|&i| i < left_width) {
                        Some(true) // left side
                    } else if cols.iter().all(|&i| i >= left_width) {
                        Some(false)
                    } else {
                        None
                    }
                };
                match (side(&l), side(&r)) {
                    (Some(true), Some(false)) => {
                        left_keys.push(l);
                        let mut r = r;
                        r.remap_columns(&|i| i - left_width);
                        right_keys.push(r);
                        continue;
                    }
                    (Some(false), Some(true)) => {
                        let mut l = l;
                        l.remap_columns(&|i| i - left_width);
                        left_keys.push(r);
                        right_keys.push(l);
                        continue;
                    }
                    _ => {
                        residual.push(PhysExpr::Binary {
                            op: sigma_sql::SqlBinaryOp::Eq,
                            left: Box::new(l),
                            right: Box::new(r),
                        });
                        continue;
                    }
                }
            }
            residual.push(self.resolve(c, joined_scope)?);
        }
        let residual = residual.into_iter().reduce(|a, b| PhysExpr::Binary {
            op: sigma_sql::SqlBinaryOp::And,
            left: Box::new(a),
            right: Box::new(b),
        });
        Ok((left_keys, right_keys, residual))
    }

    fn build_agg_call(&self, e: &SqlExpr, scope: &Scope) -> Result<AggCall, CdwError> {
        let SqlExpr::Func {
            name,
            args,
            distinct,
        } = e
        else {
            return Err(CdwError::plan("not an aggregate"));
        };
        let upper = name.to_ascii_uppercase();
        let func = agg_func_for(&upper)
            .ok_or_else(|| CdwError::plan(format!("unknown aggregate {name}")))?;
        // Reject window functions nested inside aggregate arguments.
        for a in args {
            let mut wins = Vec::new();
            collect_windows(a, &mut wins);
            if !wins.is_empty() {
                return Err(CdwError::plan(
                    "window functions are not allowed inside aggregate arguments",
                ));
            }
        }
        match upper.as_str() {
            "COUNT" => {
                if args.is_empty() || matches!(args[0], SqlExpr::Star) {
                    if *distinct {
                        return Err(CdwError::plan("COUNT(DISTINCT *) is not supported"));
                    }
                    Ok(AggCall {
                        func: AggFunc::CountStar,
                        arg: None,
                    })
                } else {
                    let arg = self.resolve(&args[0], scope)?;
                    let func = if *distinct {
                        AggFunc::CountDistinct
                    } else {
                        AggFunc::Count
                    };
                    Ok(AggCall {
                        func,
                        arg: Some(arg),
                    })
                }
            }
            "PERCENTILE_CONT" => {
                let frac = match args.get(1) {
                    Some(SqlExpr::Literal(v)) => v.as_f64().ok_or_else(|| {
                        CdwError::plan("PERCENTILE_CONT fraction must be numeric")
                    })?,
                    _ => {
                        return Err(CdwError::plan(
                            "PERCENTILE_CONT expects (expr, literal fraction)",
                        ))
                    }
                };
                let arg = self.resolve(&args[0], scope)?;
                Ok(AggCall {
                    func: AggFunc::Percentile(frac),
                    arg: Some(arg),
                })
            }
            _ => {
                if args.len() != 1 {
                    return Err(CdwError::plan(format!("{name} expects one argument")));
                }
                if *distinct {
                    return Err(CdwError::plan(format!("{name} DISTINCT is not supported")));
                }
                let arg = self.resolve(&args[0], scope)?;
                Ok(AggCall {
                    func,
                    arg: Some(arg),
                })
            }
        }
    }

    fn build_window_call(&self, e: &SqlExpr, scope: &Scope) -> Result<WindowCall, CdwError> {
        let SqlExpr::WindowFunc {
            name,
            args,
            ignore_nulls,
            spec,
        } = e
        else {
            return Err(CdwError::plan("not a window function"));
        };
        let func = win_func_for(name)
            .ok_or_else(|| CdwError::plan(format!("unknown window function {name}")))?;
        let args: Vec<PhysExpr> = args
            .iter()
            .map(|a| {
                if matches!(a, SqlExpr::Star) {
                    // COUNT(*) OVER: no argument.
                    Ok(PhysExpr::lit(1i64))
                } else {
                    self.resolve(a, scope)
                }
            })
            .collect::<Result<_, _>>()?;
        let partition: Vec<PhysExpr> = spec
            .partition_by
            .iter()
            .map(|p| self.resolve(p, scope))
            .collect::<Result<_, _>>()?;
        let order: Vec<SortSpec> = spec
            .order_by
            .iter()
            .map(|o| {
                Ok(SortSpec {
                    expr: self.resolve(&o.expr, scope)?,
                    descending: o.descending,
                    nulls_last: o.nulls_last,
                })
            })
            .collect::<Result<Vec<_>, CdwError>>()?;
        Ok(WindowCall {
            func,
            args,
            ignore_nulls: *ignore_nulls,
            partition,
            order,
            frame: spec.frame,
        })
    }

    /// Resolve a SQL expression to a physical expression — the crate's
    /// only `SqlExpr` → [`PhysExpr`] lowering (queries and DML alike).
    pub(crate) fn resolve(&self, e: &SqlExpr, scope: &Scope) -> Result<PhysExpr, CdwError> {
        Ok(match e {
            SqlExpr::Literal(v) => PhysExpr::Literal(v.clone()),
            SqlExpr::Column { table, name } => {
                let (idx, _) = scope.resolve(table.as_deref(), name)?;
                PhysExpr::Col(idx)
            }
            SqlExpr::Star => {
                return Err(CdwError::plan("'*' is only valid in COUNT(*) or SELECT *"))
            }
            SqlExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(self.resolve(expr, scope)?),
            },
            SqlExpr::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: Box::new(self.resolve(left, scope)?),
                right: Box::new(self.resolve(right, scope)?),
            },
            SqlExpr::Func { name, args, .. } => {
                if agg_func_for(name).is_some() {
                    return Err(CdwError::plan(format!(
                        "aggregate {name} is not allowed here"
                    )));
                }
                let func = ScalarFunc::from_name(name)
                    .ok_or_else(|| CdwError::plan(format!("unknown function {name}")))?;
                PhysExpr::Func {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.resolve(a, scope))
                        .collect::<Result<_, _>>()?,
                }
            }
            SqlExpr::WindowFunc { .. } => {
                return Err(CdwError::plan("window function in an unsupported position"))
            }
            SqlExpr::Case {
                operand,
                whens,
                else_,
            } => PhysExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.resolve(o, scope).map(Box::new))
                    .transpose()?,
                whens: whens
                    .iter()
                    .map(|(w, t)| Ok((self.resolve(w, scope)?, self.resolve(t, scope)?)))
                    .collect::<Result<_, CdwError>>()?,
                else_: else_
                    .as_ref()
                    .map(|e| self.resolve(e, scope).map(Box::new))
                    .transpose()?,
            },
            // SQL CAST in compiled worksheet queries plans as TRY_CAST:
            // unconvertible cells become NULL (the paper's error
            // isolation), never a query-level failure.
            SqlExpr::Cast { expr, dtype } => PhysExpr::Cast {
                expr: Box::new(self.resolve(expr, scope)?),
                dtype: *dtype,
                strict: false,
            },
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(self.resolve(expr, scope)?),
                list: list
                    .iter()
                    .map(|l| self.resolve(l, scope))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            SqlExpr::Between {
                expr,
                low,
                high,
                negated,
            } => PhysExpr::Between {
                expr: Box::new(self.resolve(expr, scope)?),
                low: Box::new(self.resolve(low, scope)?),
                high: Box::new(self.resolve(high, scope)?),
                negated: *negated,
            },
            SqlExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(self.resolve(expr, scope)?),
                negated: *negated,
            },
            SqlExpr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: Box::new(self.resolve(expr, scope)?),
                pattern: Box::new(self.resolve(pattern, scope)?),
                negated: *negated,
            },
        })
    }
}

/// Output type of a window call.
fn window_output_type(call: &WindowCall, input_types: &[DataType]) -> Result<DataType, CdwError> {
    Ok(match &call.func {
        WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank | WinFunc::Ntile => DataType::Int,
        WinFunc::Lag
        | WinFunc::Lead
        | WinFunc::FirstValue
        | WinFunc::LastValue
        | WinFunc::NthValue => {
            let t = call
                .args
                .first()
                .map(|a| eval::infer_type(a, input_types))
                .transpose()?
                .flatten();
            t.unwrap_or(DataType::Text)
        }
        WinFunc::Agg(f) => {
            let t = call
                .args
                .first()
                .map(|a| eval::infer_type(a, input_types))
                .transpose()?
                .flatten();
            f.output_type(t)
        }
    })
}

fn join_output_schema(left: &Arc<Schema>, right: &Arc<Schema>) -> Arc<Schema> {
    let mut fields: Vec<Field> = left.fields().to_vec();
    for f in right.fields() {
        let mut name = f.name.clone();
        let mut suffix = 2;
        while fields.iter().any(|x| x.name.eq_ignore_ascii_case(&name)) {
            name = format!("{} ({suffix})", f.name);
            suffix += 1;
        }
        fields.push(Field::new(name, f.dtype));
    }
    Arc::new(Schema::new(fields))
}

fn plan_union(plans: Vec<Plan>) -> Result<Plan, CdwError> {
    let first_schema = plans[0].schema();
    for p in &plans[1..] {
        if p.schema().len() != first_schema.len() {
            return Err(CdwError::plan("UNION inputs have different column counts"));
        }
    }
    // Unify column types across inputs; cast where needed.
    let mut fields = Vec::with_capacity(first_schema.len());
    for i in 0..first_schema.len() {
        let mut t = first_schema.field(i).dtype;
        for p in &plans[1..] {
            let pt = p.schema().field(i).dtype;
            t = t.unify(pt).ok_or_else(|| {
                CdwError::plan(format!(
                    "UNION column {} mixes {t} and {pt}",
                    first_schema.field(i).name
                ))
            })?;
        }
        fields.push(Field::new(first_schema.field(i).name.clone(), t));
    }
    let schema = Arc::new(Schema::new(fields));
    let casted: Vec<Plan> = plans
        .into_iter()
        .map(|p| {
            let ps = p.schema();
            let needs_cast = (0..schema.len()).any(|i| ps.field(i).dtype != schema.field(i).dtype);
            if !needs_cast {
                return p;
            }
            let exprs: Vec<PhysExpr> = (0..schema.len())
                .map(|i| {
                    if ps.field(i).dtype == schema.field(i).dtype {
                        PhysExpr::Col(i)
                    } else {
                        PhysExpr::Cast {
                            expr: Box::new(PhysExpr::Col(i)),
                            dtype: schema.field(i).dtype,
                            strict: false,
                        }
                    }
                })
                .collect();
            Plan::Project {
                input: Box::new(p),
                exprs,
                schema: schema.clone(),
            }
        })
        .collect();
    Ok(Plan::UnionAll {
        inputs: casted,
        schema,
    })
}

fn flatten_union<'q>(body: &'q SetExpr, out: &mut Vec<&'q SetExpr>) {
    match body {
        SetExpr::UnionAll(l, r) => {
            flatten_union(l, out);
            flatten_union(r, out);
        }
        other => out.push(other),
    }
}

fn split_conjuncts<'e>(e: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
    if let SqlExpr::Binary {
        op: sigma_sql::SqlBinaryOp::And,
        left,
        right,
    } = e
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// True if the expression contains an aggregate call outside any window.
fn contains_agg(e: &SqlExpr) -> bool {
    let mut found = false;
    walk_sql(e, &mut |node| {
        if let SqlExpr::Func { name, .. } = node {
            if agg_func_for(name).is_some() {
                found = true;
            }
        }
    });
    found
}

/// Collect distinct aggregate subtrees; does not descend into window
/// functions (their aggregate spellings execute as windows).
fn collect_aggs(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::Func { name, .. } if agg_func_for(name).is_some() => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        SqlExpr::WindowFunc { args, spec, .. } => {
            // Window args may reference aggregates (e.g. SUM(SUM(x)) OVER).
            for a in args {
                collect_aggs(a, out);
            }
            for p in &spec.partition_by {
                collect_aggs(p, out);
            }
            for o in &spec.order_by {
                collect_aggs(&o.expr, out);
            }
        }
        _ => walk_children(e, &mut |c| collect_aggs(c, out)),
    }
}

/// Collect distinct window subtrees (post-aggregate rewriting).
fn collect_windows(e: &SqlExpr, out: &mut Vec<SqlExpr>) {
    match e {
        SqlExpr::WindowFunc { .. } => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        _ => walk_children(e, &mut |c| collect_windows(c, out)),
    }
}

fn walk_sql(e: &SqlExpr, f: &mut impl FnMut(&SqlExpr)) {
    f(e);
    walk_children(e, &mut |c| walk_sql(c, f));
}

fn walk_children(e: &SqlExpr, f: &mut impl FnMut(&SqlExpr)) {
    match e {
        SqlExpr::Literal(_) | SqlExpr::Column { .. } | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } => f(expr),
        SqlExpr::Binary { left, right, .. } => {
            f(left);
            f(right);
        }
        SqlExpr::Func { args, .. } => {
            for a in args {
                f(a);
            }
        }
        SqlExpr::WindowFunc { args, spec, .. } => {
            for a in args {
                f(a);
            }
            for p in &spec.partition_by {
                f(p);
            }
            for o in &spec.order_by {
                f(&o.expr);
            }
        }
        SqlExpr::Case {
            operand,
            whens,
            else_,
        } => {
            if let Some(o) = operand {
                f(o);
            }
            for (w, t) in whens {
                f(w);
                f(t);
            }
            if let Some(e) = else_ {
                f(e);
            }
        }
        SqlExpr::Cast { expr, .. } => f(expr),
        SqlExpr::InList { expr, list, .. } => {
            f(expr);
            for l in list {
                f(l);
            }
        }
        SqlExpr::Between {
            expr, low, high, ..
        } => {
            f(expr);
            f(low);
            f(high);
        }
        SqlExpr::IsNull { expr, .. } => f(expr),
        SqlExpr::Like { expr, pattern, .. } => {
            f(expr);
            f(pattern);
        }
    }
}

/// Replace any subtree equal to a mapping key with its replacement.
fn replace_subtrees(e: &SqlExpr, mapping: &[(SqlExpr, SqlExpr)]) -> SqlExpr {
    for (from, to) in mapping {
        if e == from {
            return to.clone();
        }
    }
    let mut out = e.clone();
    match &mut out {
        SqlExpr::Literal(_) | SqlExpr::Column { .. } | SqlExpr::Star => {}
        SqlExpr::Unary { expr, .. } => **expr = replace_subtrees(expr, mapping),
        SqlExpr::Binary { left, right, .. } => {
            **left = replace_subtrees(left, mapping);
            **right = replace_subtrees(right, mapping);
        }
        SqlExpr::Func { args, .. } => {
            for a in args.iter_mut() {
                *a = replace_subtrees(a, mapping);
            }
        }
        SqlExpr::WindowFunc { args, spec, .. } => {
            for a in args.iter_mut() {
                *a = replace_subtrees(a, mapping);
            }
            for p in spec.partition_by.iter_mut() {
                *p = replace_subtrees(p, mapping);
            }
            for o in spec.order_by.iter_mut() {
                o.expr = replace_subtrees(&o.expr, mapping);
            }
        }
        SqlExpr::Case {
            operand,
            whens,
            else_,
        } => {
            if let Some(o) = operand {
                **o = replace_subtrees(o, mapping);
            }
            for (w, t) in whens.iter_mut() {
                *w = replace_subtrees(w, mapping);
                *t = replace_subtrees(t, mapping);
            }
            if let Some(el) = else_ {
                **el = replace_subtrees(el, mapping);
            }
        }
        SqlExpr::Cast { expr, .. } => **expr = replace_subtrees(expr, mapping),
        SqlExpr::InList { expr, list, .. } => {
            **expr = replace_subtrees(expr, mapping);
            for l in list.iter_mut() {
                *l = replace_subtrees(l, mapping);
            }
        }
        SqlExpr::Between {
            expr, low, high, ..
        } => {
            **expr = replace_subtrees(expr, mapping);
            **low = replace_subtrees(low, mapping);
            **high = replace_subtrees(high, mapping);
        }
        SqlExpr::IsNull { expr, .. } => **expr = replace_subtrees(expr, mapping),
        SqlExpr::Like { expr, pattern, .. } => {
            **expr = replace_subtrees(expr, mapping);
            **pattern = replace_subtrees(pattern, mapping);
        }
    }
    out
}
