//! CTE pipeline construction: source → base → levels → summary → final
//! assembly, phase by phase.

use std::collections::HashMap;

use super::context::{ColumnInfo, ColumnOrigin, LookupJoin, TableCtx};
use super::formula::{filter_predicate, lower, null_safe_key, Site};
use crate::error::CoreError;
use crate::table::{DataSource, SourceLink};
use sigma_expr::{analyze, Formula, FunctionKind};
use sigma_sql::{
    Join, JoinKind, ObjectName, OrderExpr, Query, Select, SelectItem, SetExpr, SqlExpr, TableRef,
    WindowSpec,
};

/// Build the complete query for a table context.
pub(crate) fn build_query(ctx: &TableCtx<'_>) -> Result<Query, CoreError> {
    let mut b = Builder {
        ctx,
        ctes: Vec::new(),
        current: vec![None; ctx.summary_stage() + 1],
        materialized: vec![Vec::new(); ctx.summary_stage() + 1],
        embed_counter: 0,
    };
    b.build_source()?;
    for phase in 0..=ctx.max_phase {
        for stage in 0..=ctx.summary_stage() {
            b.build_stage(stage, phase)?;
        }
    }
    b.build_final()
}

struct Builder<'a, 'b> {
    ctx: &'a TableCtx<'b>,
    ctes: Vec<(String, Query)>,
    /// Latest CTE name per stage (filters included).
    current: Vec<Option<String>>,
    /// Column names materialized per stage so far.
    materialized: Vec<Vec<String>>,
    embed_counter: usize,
}

const SOURCE_CTE: &str = "source";
const INPUT_CTE: &str = "input_rows";

impl<'a, 'b> Builder<'a, 'b> {
    fn push_cte(&mut self, name: String, query: Query) {
        self.ctes.push((name, query));
    }

    fn stage_cols(&self, stage: usize, phase: usize) -> Vec<ColumnInfo> {
        self.ctx
            .columns
            .iter()
            .filter(|c| c.level == stage && c.phase == phase)
            .cloned()
            .collect()
    }

    fn stage_cte_name(&self, stage: usize, phase: usize) -> String {
        let l = self.ctx.summary_stage();
        if stage == 0 {
            format!("base_{phase}")
        } else if stage == l {
            format!("summary_{phase}")
        } else {
            format!("lvl{stage}_{phase}")
        }
    }

    // ------------------------------------------------------------------
    // source
    // ------------------------------------------------------------------

    /// Relation for one data source (may append embedded CTEs).
    fn source_relation(&mut self, ds: &DataSource, alias: &str) -> Result<TableRef, CoreError> {
        match ds {
            DataSource::WarehouseTable { table } | DataSource::Csv { table } => {
                Ok(TableRef::Table {
                    name: ObjectName::bare(table.clone()),
                    alias: Some(alias.to_string()),
                })
            }
            DataSource::RawSql { sql } => {
                let query = sigma_sql::parse_query(sql)
                    .map_err(|e| CoreError::Compile(format!("raw SQL source: {e}")))?;
                Ok(TableRef::Subquery {
                    query: Box::new(query),
                    alias: alias.to_string(),
                })
            }
            DataSource::Element { name } => {
                if let Some(table) = self
                    .ctx
                    .compiler
                    .options
                    .materializations
                    .get(&name.to_ascii_lowercase())
                {
                    // Materialized view substitution (§2, §4).
                    return Ok(TableRef::Table {
                        name: ObjectName::bare(table.clone()),
                        alias: Some(alias.to_string()),
                    });
                }
                let compiled = self.ctx.compiler.compile_element_unchecked(name)?;
                let cte = self.embed(compiled.query)?;
                Ok(TableRef::Table {
                    name: ObjectName::bare(cte),
                    alias: Some(alias.to_string()),
                })
            }
        }
    }

    /// Embed another element's compiled query: its CTEs are merged (renamed
    /// with a unique prefix) and its body becomes a new CTE whose name is
    /// returned.
    fn embed(&mut self, mut query: Query) -> Result<String, CoreError> {
        let prefix = format!("e{}_", self.embed_counter);
        self.embed_counter += 1;
        let mut renames: HashMap<String, String> = HashMap::new();
        for (name, _) in &query.ctes {
            renames.insert(name.to_ascii_lowercase(), format!("{prefix}{name}"));
        }
        query.for_each_table_ref_mut(&mut |t| {
            if let TableRef::Table { name, .. } = t {
                if let [base] = name.0.as_mut_slice() {
                    if let Some(new) = renames.get(&base.to_ascii_lowercase()) {
                        *base = new.clone();
                    }
                }
            }
        });
        let ctes = std::mem::take(&mut query.ctes);
        for (name, cte) in ctes {
            let new_name = renames
                .get(&name.to_ascii_lowercase())
                .cloned()
                .unwrap_or(name);
            self.push_cte(new_name, cte);
        }
        let out = format!("{prefix}out");
        self.push_cte(out.clone(), query);
        Ok(out)
    }

    fn build_source(&mut self) -> Result<(), CoreError> {
        let spec = self.ctx.spec;
        // The raw combined input (primary + links).
        let primary = self.source_relation(&spec.source, "s")?;
        let mut select = Select::new();
        let mut union_sources = Vec::new();
        for (i, link) in spec.links.iter().enumerate() {
            match link {
                SourceLink::Join {
                    source,
                    on,
                    left_outer,
                    prefix: _,
                } => {
                    let alias = format!("j{i}");
                    let rel = self.source_relation(source, &alias)?;
                    let on_expr = SqlExpr::conjunction(on.iter().map(|(l, r)| {
                        SqlExpr::eq(
                            SqlExpr::qcol("s", l.clone()),
                            SqlExpr::qcol(&alias, r.clone()),
                        )
                    }))
                    .ok_or_else(|| {
                        CoreError::Document("join links need at least one key pair".into())
                    })?;
                    select.joins.push(Join {
                        kind: if *left_outer {
                            JoinKind::Left
                        } else {
                            JoinKind::Inner
                        },
                        relation: rel,
                        on: Some(on_expr),
                    });
                }
                SourceLink::Union { source } => union_sources.push(source),
            }
        }
        select.from = Some(primary);
        // Select every source field under its combined name. Joined fields
        // arrive prefixed; their origin alias/name must be reconstructed.
        let primary_fields =
            super::context::source_schema(self.ctx.compiler, &spec.source, &self.ctx.element_name)?;
        for f in &primary_fields {
            select.projection.push(SelectItem::aliased(
                SqlExpr::qcol("s", f.name.clone()),
                f.name.clone(),
            ));
        }
        for (i, link) in spec.links.iter().enumerate() {
            if let SourceLink::Join { source, prefix, .. } = link {
                let alias = format!("j{i}");
                let fields = super::context::source_schema(
                    self.ctx.compiler,
                    source,
                    &self.ctx.element_name,
                )?;
                for f in fields {
                    select.projection.push(SelectItem::aliased(
                        SqlExpr::qcol(&alias, f.name.clone()),
                        format!("{prefix}{}", f.name),
                    ));
                }
            }
        }

        let mut body = SetExpr::Select(Box::new(select));
        for (u, source) in union_sources.into_iter().enumerate() {
            let alias = format!("u{u}");
            let rel = self.source_relation(source, &alias)?;
            let fields =
                super::context::source_schema(self.ctx.compiler, source, &self.ctx.element_name)?;
            let mut s = Select::new();
            s.from = Some(rel);
            for f in &self.ctx.source_fields {
                let matching = fields.iter().find(|x| x.name.eq_ignore_ascii_case(&f.name));
                let expr = match matching {
                    Some(m) => {
                        let raw = SqlExpr::qcol(&alias, m.name.clone());
                        if m.dtype == f.dtype {
                            raw
                        } else {
                            SqlExpr::Cast {
                                expr: Box::new(raw),
                                dtype: f.dtype,
                            }
                        }
                    }
                    None => SqlExpr::Cast {
                        expr: Box::new(SqlExpr::null()),
                        dtype: f.dtype,
                    },
                };
                s.projection.push(SelectItem::aliased(expr, f.name.clone()));
            }
            body = SetExpr::UnionAll(Box::new(body), Box::new(SetExpr::Select(Box::new(s))));
        }
        let input_query = Query {
            ctes: Vec::new(),
            body,
            order_by: vec![],
            limit: None,
            offset: None,
        };

        if self.ctx.lookups.is_empty() {
            self.push_cte(SOURCE_CTE.to_string(), input_query);
            return Ok(());
        }

        // Lookups present: materialize the raw input first, then join the
        // grouped targets.
        self.push_cte(INPUT_CTE.to_string(), input_query);
        let mut select = Select::new();
        select.from = Some(TableRef::Table {
            name: ObjectName::bare(INPUT_CTE),
            alias: Some("i".into()),
        });
        for f in &self.ctx.source_fields {
            select.projection.push(SelectItem::aliased(
                SqlExpr::qcol("i", f.name.clone()),
                f.name.clone(),
            ));
        }
        let lookups = self.ctx.lookups.clone();
        for lr in &lookups {
            let sub = self.lookup_subquery(lr)?;
            let mut on = Vec::new();
            for (j, local) in lr.local_keys.iter().enumerate() {
                let site = SourceKeySite {
                    ctx: self.ctx,
                    alias: "i",
                };
                let local_expr = lower(local, &site)?;
                on.push(SqlExpr::eq(
                    local_expr,
                    SqlExpr::qcol(&lr.alias, format!("k{j}")),
                ));
            }
            select.joins.push(Join {
                kind: JoinKind::Left,
                relation: TableRef::Subquery {
                    query: Box::new(sub),
                    alias: lr.alias.clone(),
                },
                on: SqlExpr::conjunction(on),
            });
            select.projection.push(SelectItem::aliased(
                SqlExpr::qcol(&lr.alias, "v"),
                lr.pseudo.clone(),
            ));
        }
        self.push_cte(SOURCE_CTE.to_string(), Query::from_select(select));
        Ok(())
    }

    /// The grouped target subquery for one Lookup/Rollup: grouping by the
    /// join key guarantees the join never changes cardinality (§3.2).
    fn lookup_subquery(&mut self, lr: &LookupJoin) -> Result<Query, CoreError> {
        let from = if lr.is_self {
            // Self-joins read this element's own raw input.
            TableRef::Table {
                name: ObjectName::bare(INPUT_CTE),
                alias: Some("t".into()),
            }
        } else {
            let ds = DataSource::Element {
                name: lr.target.clone(),
            };
            self.source_relation(&ds, "t")?
        };
        // Lookup is Rollup with the virtual ATTR aggregate; by this point
        // both shapes carry an aggregate value expression.
        debug_assert!(
            lr.is_rollup || matches!(&lr.value, Formula::Call { func, .. } if func == "ATTR")
        );
        let site = TargetSite {
            ctx: self.ctx,
            lr,
            alias: "t",
        };
        let mut select = Select::new();
        select.from = Some(from);
        let mut group_by = Vec::new();
        for (j, tk) in lr.target_keys.iter().enumerate() {
            let e = lower(tk, &site)?;
            select
                .projection
                .push(SelectItem::aliased(e.clone(), format!("k{j}")));
            group_by.push(e);
        }
        let value = lower(&lr.value, &site)?;
        select.projection.push(SelectItem::aliased(value, "v"));
        select.group_by = group_by;
        Ok(Query::from_select(select))
    }

    // ------------------------------------------------------------------
    // stage CTEs
    // ------------------------------------------------------------------

    fn build_stage(&mut self, stage: usize, phase: usize) -> Result<(), CoreError> {
        let cols = self.stage_cols(stage, phase);
        let l = self.ctx.summary_stage();
        let structural = phase == 0 && stage < l; // base & keyed levels always exist
        if cols.is_empty() && !structural {
            return Ok(());
        }
        // Levels aggregate their finer neighbour; that CTE must exist.
        if stage > 0 && self.current[stage - 1].is_none() {
            return Err(CoreError::Compile(format!(
                "internal: stage {stage} built before its finer stage"
            )));
        }

        let select = if stage == 0 {
            self.build_base_select(phase, &cols)?
        } else {
            self.build_level_select(stage, phase, &cols)?
        };

        let name = self.stage_cte_name(stage, phase);
        self.push_cte(name.clone(), Query::from_select(select));
        self.current[stage] = Some(name);
        if phase == 0 && stage > 0 && stage < l {
            // Keys materialize on first build.
            for k in self.ctx.spec.effective_keys(stage) {
                self.materialized[stage].push(k);
            }
        }
        for c in &cols {
            self.materialized[stage].push(c.name.clone());
        }

        // Greedy filters: applied as soon as the filtered column exists.
        self.apply_filters(stage, phase)?;
        Ok(())
    }

    /// Coarser stages referenced by these columns' formulas.
    fn coarser_refs(&self, stage: usize, cols: &[ColumnInfo]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for c in cols {
            let ColumnOrigin::Formula(f) = &c.origin else {
                continue;
            };
            for r in analyze::column_refs(f) {
                if r.element.is_some() {
                    continue;
                }
                if let Some(dep) = self.ctx.column(&r.name) {
                    if dep.level > stage && !out.contains(&dep.level) {
                        out.push(dep.level);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn coarser_joins(
        &self,
        select: &mut Select,
        from_alias: &str,
        coarser: &[usize],
    ) -> Result<(), CoreError> {
        let l = self.ctx.summary_stage();
        for &m in coarser {
            let cte = self.current[m].clone().ok_or_else(|| {
                CoreError::Compile(format!("internal: coarser stage {m} not built"))
            })?;
            let alias = format!("c{m}");
            if m == l {
                // Summary: single row, cross join.
                select.joins.push(Join {
                    kind: JoinKind::Cross,
                    relation: TableRef::Table {
                        name: ObjectName::bare(cte),
                        alias: Some(alias),
                    },
                    on: None,
                });
            } else {
                let keys = self.ctx.spec.effective_keys(m);
                let on = SqlExpr::conjunction(keys.iter().map(|k| {
                    SqlExpr::eq(
                        null_safe_key(SqlExpr::qcol(from_alias, k.clone())),
                        null_safe_key(SqlExpr::qcol(&alias, k.clone())),
                    )
                }));
                select.joins.push(Join {
                    kind: JoinKind::Inner,
                    relation: TableRef::Table {
                        name: ObjectName::bare(cte),
                        alias: Some(alias),
                    },
                    on,
                });
            }
        }
        Ok(())
    }

    fn build_base_select(
        &mut self,
        phase: usize,
        cols: &[ColumnInfo],
    ) -> Result<Select, CoreError> {
        let mut select = Select::new();
        if phase == 0 {
            select.from = Some(TableRef::Table {
                name: ObjectName::bare(SOURCE_CTE),
                alias: None,
            });
            let site = BaseSite {
                ctx: self.ctx,
                phase: 0,
                pass_alias: None,
            };
            for c in cols {
                let e = self.lower_column(c, &site)?;
                select
                    .projection
                    .push(SelectItem::aliased(e, c.name.clone()));
            }
        } else {
            let prior = self.current[0].clone().expect("base_0 exists");
            select.from = Some(TableRef::Table {
                name: ObjectName::bare(prior),
                alias: Some("b".into()),
            });
            let coarser = self.coarser_refs(0, cols);
            self.coarser_joins(&mut select, "b", &coarser)?;
            for name in &self.materialized[0] {
                select.projection.push(SelectItem::aliased(
                    SqlExpr::qcol("b", name.clone()),
                    name.clone(),
                ));
            }
            let site = BaseSite {
                ctx: self.ctx,
                phase,
                pass_alias: Some("b"),
            };
            for c in cols {
                let e = self.lower_column(c, &site)?;
                select
                    .projection
                    .push(SelectItem::aliased(e, c.name.clone()));
            }
        }
        Ok(select)
    }

    fn lower_column(&self, c: &ColumnInfo, site: &dyn Site) -> Result<SqlExpr, CoreError> {
        match &c.origin {
            ColumnOrigin::SourceCol(raw) => Ok(SqlExpr::col(raw.clone())),
            ColumnOrigin::Formula(f) => lower(f, site),
        }
    }

    fn build_level_select(
        &mut self,
        stage: usize,
        phase: usize,
        cols: &[ColumnInfo],
    ) -> Result<Select, CoreError> {
        let l = self.ctx.summary_stage();
        let keys = if stage == l {
            Vec::new()
        } else {
            self.ctx.spec.effective_keys(stage)
        };
        let finer = self.current[stage - 1].clone().expect("finer stage exists");

        if phase == 0 {
            // Classify aggregate calls by input stage: aggregates over the
            // immediately finer level compute inline in this grouped
            // select; "deep" aggregates over finer stages (e.g. a
            // CountDistinct of a base column at a coarse level — Scenario
            // 1's cohort population) compute in per-stage subqueries
            // grouped by this level's keys and join back.
            let mut slots: HashMap<String, (usize, String)> = HashMap::new();
            let mut deep_exprs: HashMap<usize, Vec<(String, SqlExpr)>> = HashMap::new();
            for c in cols {
                let ColumnOrigin::Formula(f) = &c.origin else {
                    continue;
                };
                collect_agg_subtrees(f, &mut |agg: &Formula| {
                    let canonical = agg.to_string();
                    if slots.contains_key(&canonical) {
                        return Ok(());
                    }
                    let m = agg_input_stage(self.ctx, agg, stage)?;
                    if m == stage - 1 {
                        return Ok(()); // inline in the grouped select
                    }
                    let slot = format!("$d{}", slots.len());
                    let arg_site = ArgSite {
                        builder: self,
                        finer_stage: m,
                        alias: "d",
                    };
                    let lowered = lower_agg_call(agg, &arg_site)?;
                    slots.insert(canonical, (m, slot.clone()));
                    deep_exprs.entry(m).or_default().push((slot, lowered));
                    Ok(())
                })?;
            }

            // Single grouped select FROM the finer stage.
            let mut select = Select::new();
            select.from = Some(TableRef::Table {
                name: ObjectName::bare(finer),
                alias: Some("f".into()),
            });
            for k in &keys {
                select.projection.push(SelectItem::aliased(
                    SqlExpr::qcol("f", k.clone()),
                    k.clone(),
                ));
                select.group_by.push(SqlExpr::qcol("f", k.clone()));
            }
            let mut stages_sorted: Vec<usize> = deep_exprs.keys().copied().collect();
            stages_sorted.sort_unstable();
            for m in stages_sorted {
                let exprs = deep_exprs.remove(&m).expect("key present");
                let sub = self.deep_subquery(m, &keys, exprs)?;
                let alias = format!("bf{m}");
                let on = SqlExpr::conjunction(keys.iter().map(|k| {
                    SqlExpr::eq(
                        null_safe_key(SqlExpr::qcol("f", k.clone())),
                        null_safe_key(SqlExpr::qcol(&alias, k.clone())),
                    )
                }));
                select.joins.push(Join {
                    kind: if keys.is_empty() {
                        JoinKind::Cross
                    } else {
                        JoinKind::Inner
                    },
                    relation: TableRef::Subquery {
                        query: Box::new(sub),
                        alias,
                    },
                    on,
                });
            }
            let site = LevelSite {
                builder: self,
                stage,
                phase: 0,
                input_alias: "f",
                prior_alias: None,
                fresh_slots: &slots,
            };
            let mut items = Vec::new();
            for c in cols {
                items.push((c.name.clone(), self.lower_column(c, &site)?));
            }
            for (name, e) in items {
                select.projection.push(SelectItem::aliased(e, name));
            }
            if keys.is_empty() && cols.is_empty() {
                // Structural summary with no columns is skipped by caller;
                // guard anyway.
                select.projection.push(SelectItem::bare(SqlExpr::lit(1i64)));
            }
            return Ok(select);
        }

        // Phase > 0: fresh aggregates computed in per-input-stage
        // subqueries joined to the prior CTE of this stage, plus coarser
        // joins for downward refs.
        let mut fresh_slots: HashMap<String, (usize, String)> = HashMap::new();
        let mut fresh_exprs: HashMap<usize, Vec<(String, SqlExpr)>> = HashMap::new();
        for c in cols {
            let ColumnOrigin::Formula(f) = &c.origin else {
                continue;
            };
            collect_agg_subtrees(f, &mut |agg: &Formula| {
                let canonical = agg.to_string();
                if fresh_slots.contains_key(&canonical) {
                    return Ok(());
                }
                let m = agg_input_stage(self.ctx, agg, stage)?;
                let slot = format!("$f{}", fresh_slots.len());
                let arg_site = ArgSite {
                    builder: self,
                    finer_stage: m,
                    alias: "d",
                };
                let lowered = lower_agg_call(agg, &arg_site)?;
                fresh_slots.insert(canonical, (m, slot.clone()));
                fresh_exprs.entry(m).or_default().push((slot, lowered));
                Ok(())
            })?;
        }

        let prior = self.current[stage].clone();
        let mut select = Select::new();
        let have_fresh = !fresh_exprs.is_empty();
        let mut fresh_stages: Vec<usize> = fresh_exprs.keys().copied().collect();
        fresh_stages.sort_unstable();
        let mut fresh_subqueries: Vec<(usize, Query)> = Vec::new();
        for m in fresh_stages {
            let exprs = fresh_exprs.remove(&m).expect("key present");
            let sub = self.deep_subquery(m, &keys, exprs)?;
            fresh_subqueries.push((m, sub));
        }

        let (main_alias, pass_names): (String, Vec<String>) = match &prior {
            Some(prior_cte) => {
                select.from = Some(TableRef::Table {
                    name: ObjectName::bare(prior_cte.clone()),
                    alias: Some("prior".into()),
                });
                for (m, sub) in &fresh_subqueries {
                    let alias = format!("fresh{m}");
                    let on = SqlExpr::conjunction(keys.iter().map(|k| {
                        SqlExpr::eq(
                            null_safe_key(SqlExpr::qcol("prior", k.clone())),
                            null_safe_key(SqlExpr::qcol(&alias, k.clone())),
                        )
                    }));
                    select.joins.push(Join {
                        kind: if keys.is_empty() {
                            JoinKind::Cross
                        } else {
                            JoinKind::Inner
                        },
                        relation: TableRef::Subquery {
                            query: Box::new(sub.clone()),
                            alias,
                        },
                        on,
                    });
                }
                ("prior".to_string(), self.materialized[stage].clone())
            }
            None => {
                // First columns for this stage appear at phase > 0 (only
                // possible for the summary).
                if !have_fresh {
                    return Err(CoreError::Compile(
                        "internal: phase>0 stage with neither prior nor aggregates".into(),
                    ));
                }
                let (m0, sub0) = fresh_subqueries[0].clone();
                let first_alias = format!("fresh{m0}");
                select.from = Some(TableRef::Subquery {
                    query: Box::new(sub0),
                    alias: first_alias.clone(),
                });
                for (m, sub) in fresh_subqueries.iter().skip(1) {
                    let alias = format!("fresh{m}");
                    let on = SqlExpr::conjunction(keys.iter().map(|k| {
                        SqlExpr::eq(
                            null_safe_key(SqlExpr::qcol(&first_alias, k.clone())),
                            null_safe_key(SqlExpr::qcol(&alias, k.clone())),
                        )
                    }));
                    select.joins.push(Join {
                        kind: if keys.is_empty() {
                            JoinKind::Cross
                        } else {
                            JoinKind::Inner
                        },
                        relation: TableRef::Subquery {
                            query: Box::new(sub.clone()),
                            alias,
                        },
                        on,
                    });
                }
                (first_alias, keys.clone())
            }
        };
        let coarser = self.coarser_refs(stage, cols);
        self.coarser_joins(&mut select, &main_alias, &coarser)?;
        for name in &pass_names {
            select.projection.push(SelectItem::aliased(
                SqlExpr::qcol(&main_alias, name.clone()),
                name.clone(),
            ));
        }
        let _ = have_fresh;
        let site = LevelSite {
            builder: self,
            stage,
            phase,
            input_alias: "fresh",
            prior_alias: Some(&main_alias),
            fresh_slots: &fresh_slots,
        };
        let mut items = Vec::new();
        for c in cols {
            items.push((c.name.clone(), self.lower_column(c, &site)?));
        }
        for (name, e) in items {
            select.projection.push(SelectItem::aliased(e, name));
        }
        Ok(select)
    }

    /// A grouped subquery computing aggregate slots over stage `m`'s rows,
    /// keyed by this level's effective keys (the "deep aggregate" path).
    fn deep_subquery(
        &self,
        m: usize,
        keys: &[String],
        exprs: Vec<(String, SqlExpr)>,
    ) -> Result<Query, CoreError> {
        let input = self.current[m]
            .clone()
            .ok_or_else(|| CoreError::Compile(format!("internal: stage {m} not built")))?;
        let mut sub = Select::new();
        sub.from = Some(TableRef::Table {
            name: ObjectName::bare(input),
            alias: Some("d".into()),
        });
        for k in keys {
            sub.projection.push(SelectItem::aliased(
                SqlExpr::qcol("d", k.clone()),
                k.clone(),
            ));
            sub.group_by.push(SqlExpr::qcol("d", k.clone()));
        }
        for (slot, e) in exprs {
            sub.projection.push(SelectItem::aliased(e, slot));
        }
        Ok(Query::from_select(sub))
    }

    /// Wrap the stage's current CTE with the filters that just became
    /// computable (greedy placement, §3.1).
    fn apply_filters(&mut self, stage: usize, phase: usize) -> Result<(), CoreError> {
        let mut preds: Vec<SqlExpr> = Vec::new();
        for f in &self.ctx.spec.filters {
            let Some(col) = self.ctx.column(&f.column) else {
                continue;
            };
            if col.level != stage || col.phase != phase {
                continue;
            }
            preds.push(filter_predicate(
                &f.predicate,
                SqlExpr::col(col.name.clone()),
            )?);
        }
        let Some(pred) = SqlExpr::conjunction(preds) else {
            return Ok(());
        };
        let inner = self.current[stage].clone().expect("stage just built");
        let mut select = Select::new();
        select.projection.push(SelectItem::Wildcard);
        select.from = Some(TableRef::Table {
            name: ObjectName::bare(inner.clone()),
            alias: None,
        });
        select.selection = Some(pred);
        let name = format!("{inner}_f");
        self.push_cte(name.clone(), Query::from_select(select));
        self.current[stage] = Some(name);
        Ok(())
    }

    // ------------------------------------------------------------------
    // final assembly
    // ------------------------------------------------------------------

    fn build_final(mut self) -> Result<Query, CoreError> {
        let ctx = self.ctx;
        let l = ctx.summary_stage();
        let d = ctx.spec.detail_level;
        let detail_cte = self.current[d]
            .clone()
            .ok_or_else(|| CoreError::Compile("nothing to select at the detail level".into()))?;

        let mut select = Select::new();
        select.from = Some(TableRef::Table {
            name: ObjectName::bare(detail_cte),
            alias: Some("t".into()),
        });

        // Which coarser stages must be joined: those with visible columns
        // or with filters (group-elimination must reach the detail rows).
        let mut joined: Vec<usize> = Vec::new();
        for m in (d + 1)..=l {
            let has_visible = ctx.columns.iter().any(|c| c.level == m && c.visible);
            let has_filter = ctx
                .spec
                .filters
                .iter()
                .any(|f| ctx.column(&f.column).is_some_and(|c| c.level == m));
            let exists = self.current[m].is_some();
            if exists && (has_visible || has_filter) {
                joined.push(m);
            }
        }
        for &m in &joined {
            let cte = self.current[m].clone().expect("joined stage exists");
            let alias = format!("lv{m}");
            if m == l {
                select.joins.push(Join {
                    kind: JoinKind::Cross,
                    relation: TableRef::Table {
                        name: ObjectName::bare(cte),
                        alias: Some(alias),
                    },
                    on: None,
                });
            } else {
                let keys = ctx.spec.effective_keys(m);
                let on = SqlExpr::conjunction(keys.iter().map(|k| {
                    SqlExpr::eq(
                        null_safe_key(SqlExpr::qcol("t", k.clone())),
                        null_safe_key(SqlExpr::qcol(&alias, k.clone())),
                    )
                }));
                select.joins.push(Join {
                    kind: JoinKind::Inner,
                    relation: TableRef::Table {
                        name: ObjectName::bare(cte),
                        alias: Some(alias),
                    },
                    on,
                });
            }
        }

        // Keyed detail levels surface their grouping keys first.
        let mut projected: Vec<String> = Vec::new();
        if d >= 1 && d < l {
            for k in ctx.spec.effective_keys(d) {
                select.projection.push(SelectItem::aliased(
                    SqlExpr::qcol("t", k.clone()),
                    k.clone(),
                ));
                projected.push(k);
            }
        }
        // Visible columns at the detail level and coarser, in spec order.
        for c in &ctx.columns {
            if !c.visible
                || c.level < d
                || projected.iter().any(|p| p.eq_ignore_ascii_case(&c.name))
            {
                continue;
            }
            let expr = if c.level == d {
                SqlExpr::qcol("t", c.name.clone())
            } else if joined.contains(&c.level) {
                SqlExpr::qcol(format!("lv{}", c.level), c.name.clone())
            } else {
                continue;
            };
            select
                .projection
                .push(SelectItem::aliased(expr, c.name.clone()));
        }
        if select.projection.is_empty() {
            return Err(CoreError::Compile(
                "the table has no visible columns at its detail level".into(),
            ));
        }

        // Hierarchical ordering: coarsest keys first, then the detail
        // level's ordering annotation.
        let mut order_by = Vec::new();
        // Keyed levels run 1..l-1 in `spec.levels[1..]`; coarsest first.
        for m in (d.max(1)..l).rev() {
            for k in &ctx.spec.levels[m].keys {
                order_by.push(OrderExpr::asc(SqlExpr::qcol("t", k.clone())));
            }
        }
        if d < ctx.spec.levels.len() {
            for o in &ctx.spec.levels[d].ordering {
                order_by.push(OrderExpr {
                    expr: SqlExpr::qcol("t", o.column.clone()),
                    descending: o.descending,
                    nulls_last: None,
                });
            }
        }

        Ok(Query {
            ctes: std::mem::take(&mut self.ctes),
            body: SetExpr::Select(Box::new(select)),
            order_by,
            limit: ctx.spec.limit,
            offset: None,
        })
    }
}

// ---------------------------------------------------------------------
// sites
// ---------------------------------------------------------------------

/// Base-stage site (phase 0: inline over `source`; later phases pass
/// through the prior base CTE and joined coarser levels).
struct BaseSite<'x, 'y> {
    ctx: &'x TableCtx<'y>,
    phase: usize,
    pass_alias: Option<&'x str>,
}

impl Site for BaseSite<'_, '_> {
    fn ctx(&self) -> &TableCtx<'_> {
        self.ctx
    }

    fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError> {
        if col.level == 0 {
            if col.phase == self.phase {
                return match &col.origin {
                    // Source columns are phase 0 and come straight from
                    // the source CTE.
                    ColumnOrigin::SourceCol(raw) => Ok(SqlExpr::col(raw.clone())),
                    ColumnOrigin::Formula(f) => lower(f, self),
                };
            }
            if col.phase < self.phase {
                let alias = self.pass_alias.expect("later phases pass through");
                return Ok(SqlExpr::qcol(alias, col.name.clone()));
            }
            return Err(CoreError::Compile(format!(
                "internal: column {} (phase {}) referenced at base phase {}",
                col.name, col.phase, self.phase
            )));
        }
        // Coarser reference: joined as c{level} (phase assignment
        // guarantees the coarser CTE already exists).
        if self.phase == 0 {
            return Err(CoreError::Compile(format!(
                "internal: cross-level reference to {} at phase 0",
                col.name
            )));
        }
        Ok(SqlExpr::qcol(format!("c{}", col.level), col.name.clone()))
    }

    fn allow_window(&self) -> bool {
        true
    }

    fn window_spec(&self) -> Result<WindowSpec, CoreError> {
        // Base windows partition by the effective key of the nearest
        // coarser keyed level and order by the base ordering annotation.
        let keys = self.ctx.spec.effective_keys(1);
        let mut partition_by = Vec::new();
        for k in keys {
            let col = self
                .ctx
                .column(&k)
                .ok_or_else(|| CoreError::Unresolved(format!("key column {k}")))?
                .clone();
            partition_by.push(self.column_ref(&col)?);
        }
        let mut order_by = Vec::new();
        for o in &self.ctx.spec.levels[0].ordering {
            let col = self
                .ctx
                .column(&o.column)
                .ok_or_else(|| CoreError::Unresolved(format!("ordering column {}", o.column)))?
                .clone();
            order_by.push(OrderExpr {
                expr: self.column_ref(&col)?,
                descending: o.descending,
                nulls_last: None,
            });
        }
        Ok(WindowSpec {
            partition_by,
            order_by,
            frame: None,
        })
    }
}

/// Keyed-level / summary site.
struct LevelSite<'x, 'y, 'z> {
    builder: &'x Builder<'x, 'y>,
    stage: usize,
    phase: usize,
    /// Alias of the finer input (phase 0) or the fresh subquery.
    input_alias: &'z str,
    /// Alias of this stage's prior-phase CTE (phase > 0).
    prior_alias: Option<&'z str>,
    /// Canonical aggregate text -> (input stage, slot name) for aggregates
    /// computed out-of-line (deep aggregates at phase 0; all aggregates at
    /// phase > 0).
    fresh_slots: &'z HashMap<String, (usize, String)>,
}

impl LevelSite<'_, '_, '_> {
    fn keys(&self) -> Vec<String> {
        if self.stage == self.builder.ctx.summary_stage() {
            Vec::new()
        } else {
            self.builder.ctx.spec.effective_keys(self.stage)
        }
    }

    fn key_ref(&self, name: &str) -> SqlExpr {
        match self.prior_alias {
            Some(alias) => SqlExpr::qcol(alias, name.to_string()),
            None => SqlExpr::qcol(self.input_alias, name.to_string()),
        }
    }
}

impl Site for LevelSite<'_, '_, '_> {
    fn ctx(&self) -> &TableCtx<'_> {
        self.builder.ctx
    }

    fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError> {
        if col.level == self.stage {
            if col.phase == self.phase {
                let ColumnOrigin::Formula(f) = &col.origin else {
                    return Err(CoreError::Compile(format!(
                        "internal: source column {} above the base level",
                        col.name
                    )));
                };
                return lower(f, self);
            }
            if col.phase < self.phase {
                let alias = self.prior_alias.expect("later phases have a prior");
                return Ok(SqlExpr::qcol(alias, col.name.clone()));
            }
            return Err(CoreError::Compile(format!(
                "internal: column {} not yet materialized",
                col.name
            )));
        }
        if col.level < self.stage {
            let keys = self.keys();
            if keys.iter().any(|k| k.eq_ignore_ascii_case(&col.name)) {
                return Ok(self.key_ref(&col.name));
            }
            return Err(CoreError::Type(format!(
                "[{}] is at a finer level; aggregate it (e.g. Sum([{}]))",
                col.name, col.name
            )));
        }
        // Coarser.
        if self.phase == 0 {
            return Err(CoreError::Compile(format!(
                "internal: cross-level reference to {} at phase 0",
                col.name
            )));
        }
        Ok(SqlExpr::qcol(format!("c{}", col.level), col.name.clone()))
    }

    fn allow_aggregate(&self) -> bool {
        true
    }

    fn aggregate_slot(&self, call: &Formula) -> Option<SqlExpr> {
        let (m, slot) = self.fresh_slots.get(&call.to_string())?;
        if self.phase == 0 {
            // Deep aggregate joined as bf{m}: constant per group, so it
            // rides through the GROUP BY under the virtual aggregate ATTR.
            Some(SqlExpr::func(
                "ATTR",
                vec![SqlExpr::qcol(format!("bf{m}"), slot.clone())],
            ))
        } else {
            Some(SqlExpr::qcol(format!("fresh{m}"), slot.clone()))
        }
    }

    fn agg_arg(&self, arg: &Formula) -> Result<SqlExpr, CoreError> {
        if self.phase == 0 {
            let site = ArgSite {
                builder: self.builder,
                finer_stage: self.stage - 1,
                alias: self.input_alias,
            };
            lower(arg, &site)
        } else {
            Err(CoreError::Compile(
                "internal: phase>0 aggregates lower via fresh slots".into(),
            ))
        }
    }

    fn allow_window(&self) -> bool {
        true
    }

    fn window_spec(&self) -> Result<WindowSpec, CoreError> {
        let ctx = self.builder.ctx;
        let coarser_keys = if self.stage >= ctx.summary_stage() {
            Vec::new()
        } else {
            ctx.spec.effective_keys(self.stage + 1)
        };
        let partition_by = coarser_keys.iter().map(|k| self.key_ref(k)).collect();
        let mut order_by = Vec::new();
        if self.stage < ctx.spec.levels.len() {
            for o in &ctx.spec.levels[self.stage].ordering {
                let col = ctx
                    .column(&o.column)
                    .ok_or_else(|| CoreError::Unresolved(format!("ordering column {}", o.column)))?
                    .clone();
                order_by.push(OrderExpr {
                    expr: self.column_ref(&col)?,
                    descending: o.descending,
                    nulls_last: None,
                });
            }
        }
        Ok(WindowSpec {
            partition_by,
            order_by,
            frame: None,
        })
    }
}

/// Aggregate-argument site: expressions evaluated per finer-stage row.
struct ArgSite<'x, 'y, 'z> {
    builder: &'x Builder<'x, 'y>,
    finer_stage: usize,
    alias: &'z str,
}

impl Site for ArgSite<'_, '_, '_> {
    fn ctx(&self) -> &TableCtx<'_> {
        self.builder.ctx
    }

    fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError> {
        let available = self.builder.materialized[self.finer_stage]
            .iter()
            .any(|n| n.eq_ignore_ascii_case(&col.name));
        if available {
            return Ok(SqlExpr::qcol(self.alias, col.name.clone()));
        }
        if col.level < self.finer_stage {
            return Err(CoreError::Type(format!(
                "[{}] is too fine to aggregate here; aggregate it at an intermediate level first",
                col.name
            )));
        }
        Err(CoreError::Type(format!(
            "[{}] is not available to this aggregate (it lives at a coarser level or later phase)",
            col.name
        )))
    }
}

/// Lookup local-key site: expressions over the raw input rows.
struct SourceKeySite<'x, 'y> {
    ctx: &'x TableCtx<'y>,
    alias: &'x str,
}

impl Site for SourceKeySite<'_, '_> {
    fn ctx(&self) -> &TableCtx<'_> {
        self.ctx
    }

    fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError> {
        if col.level != 0 {
            return Err(CoreError::Compile(format!(
                "Lookup/Rollup keys must use base-level columns; [{}] is coarser",
                col.name
            )));
        }
        match &col.origin {
            ColumnOrigin::SourceCol(raw) => {
                if raw.starts_with("$lr") {
                    return Err(CoreError::Compile(
                        "Lookup/Rollup keys cannot use other lookups".into(),
                    ));
                }
                Ok(SqlExpr::qcol(self.alias, raw.clone()))
            }
            ColumnOrigin::Formula(f) => lower(f, self),
        }
    }
}

/// Lookup target-side site: `[Target/Column]` refs over the target rows.
struct TargetSite<'x, 'y> {
    ctx: &'x TableCtx<'y>,
    lr: &'x LookupJoin,
    alias: &'x str,
}

impl TargetSite<'_, '_> {
    fn resolve_target_col(&self, name: &str) -> Result<SqlExpr, CoreError> {
        if self.lr.is_self {
            // Self-joins read the raw input: element base columns lower to
            // their source expressions; raw fields pass through.
            if let Some(col) = self.ctx.column(name) {
                if col.level != 0 {
                    return Err(CoreError::Compile(format!(
                        "self-Lookup can only reference base columns; [{}] is coarser",
                        name
                    )));
                }
                return match &col.origin {
                    ColumnOrigin::SourceCol(raw) => Ok(SqlExpr::qcol(self.alias, raw.clone())),
                    ColumnOrigin::Formula(f) => {
                        // Rewrite the formula's qualified refs? Base column
                        // formulas use local refs; lower with this site so
                        // local refs resolve against the target alias.
                        lower(f, self)
                    }
                };
            }
            if self.ctx.source_field(name).is_some() {
                return Ok(SqlExpr::qcol(self.alias, name.to_string()));
            }
            return Err(CoreError::Unresolved(format!(
                "[{}/{}]",
                self.lr.target, name
            )));
        }
        // Non-self targets expose their compiled output columns by name.
        Ok(SqlExpr::qcol(self.alias, name.to_string()))
    }
}

impl Site for TargetSite<'_, '_> {
    fn ctx(&self) -> &TableCtx<'_> {
        self.ctx
    }

    fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError> {
        // Local (unqualified) refs inside target-side formulas resolve
        // against the target too (used when inlining self-target columns).
        self.resolve_target_col(&col.name)
    }

    fn qualified_ref(&self, r: &sigma_expr::ColumnRef) -> Result<SqlExpr, CoreError> {
        let el = r.element.as_deref().unwrap_or_default();
        if !el.eq_ignore_ascii_case(&self.lr.target) {
            return Err(CoreError::Compile(format!(
                "Lookup/Rollup mixes targets: expected [{}/...], found [{el}/...]",
                self.lr.target
            )));
        }
        self.resolve_target_col(&r.name)
    }

    fn allow_aggregate(&self) -> bool {
        true
    }

    fn agg_arg(&self, arg: &Formula) -> Result<SqlExpr, CoreError> {
        lower(arg, self)
    }
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

/// Visit every aggregate call subtree (not descending into them).
fn collect_agg_subtrees(
    f: &Formula,
    visit: &mut impl FnMut(&Formula) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    match f {
        Formula::Call { func, args } => {
            let kind = sigma_expr::registry(func).map(|d| d.kind);
            if kind == Some(FunctionKind::Aggregate) {
                visit(f)?;
                return Ok(());
            }
            for a in args {
                collect_agg_subtrees(a, visit)?;
            }
            Ok(())
        }
        Formula::Unary { expr, .. } => collect_agg_subtrees(expr, visit),
        Formula::Binary { left, right, .. } => {
            collect_agg_subtrees(left, visit)?;
            collect_agg_subtrees(right, visit)
        }
        _ => Ok(()),
    }
}

/// The stage whose rows an aggregate call consumes: the maximum resident
/// level of the columns its arguments reference (aggregating base columns
/// reads base rows; aggregating a level's outputs reads that level's rows);
/// argument-free aggregates (Count()) count the immediately finer level.
fn agg_input_stage(ctx: &TableCtx<'_>, agg: &Formula, stage: usize) -> Result<usize, CoreError> {
    let Formula::Call { args, .. } = agg else {
        return Err(CoreError::Compile("internal: not an aggregate".into()));
    };
    let mut input: Option<usize> = None;
    for a in args {
        for r in analyze::column_refs(a) {
            if r.element.is_some() {
                continue;
            }
            if let Some(col) = ctx.column(&r.name) {
                let lvl = col.level;
                if lvl >= stage {
                    return Err(CoreError::Type(format!(
                        "[{}] is not finer than this level and cannot be aggregated here",
                        col.name
                    )));
                }
                input = Some(input.map_or(lvl, |x| x.max(lvl)));
            }
        }
    }
    Ok(input.unwrap_or(stage.saturating_sub(1)))
}

/// Lower a single aggregate call in an argument context.
fn lower_agg_call(agg: &Formula, arg_site: &dyn Site) -> Result<SqlExpr, CoreError> {
    struct AggOnly<'x> {
        inner: &'x dyn Site,
    }
    impl Site for AggOnly<'_> {
        fn ctx(&self) -> &TableCtx<'_> {
            self.inner.ctx()
        }
        fn column_ref(&self, col: &ColumnInfo) -> Result<SqlExpr, CoreError> {
            self.inner.column_ref(col)
        }
        fn allow_aggregate(&self) -> bool {
            true
        }
        fn agg_arg(&self, arg: &Formula) -> Result<SqlExpr, CoreError> {
            lower(arg, self.inner)
        }
    }
    lower(agg, &AggOnly { inner: arg_site })
}
