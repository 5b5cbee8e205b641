//! The flights fact-table generator.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sigma_value::{calendar, Batch, Column, ColumnBuilder, DataType, Field, Schema};

use crate::airports::AIRPORTS;

/// Carriers in the synthetic fleet.
pub const CARRIERS: &[&str] = &["AA", "UA", "DL", "WN", "AS", "B6", "NK", "F9"];

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct FlightsConfig {
    /// Approximate number of fact rows to generate.
    pub rows: usize,
    pub seed: u64,
    /// First year planes may enter service (paper: 1987).
    pub start_year: i32,
    /// Last year of flights (paper: 2020).
    pub end_year: i32,
}

impl Default for FlightsConfig {
    fn default() -> Self {
        FlightsConfig {
            rows: 10_000,
            seed: 42,
            start_year: 1987,
            end_year: 2020,
        }
    }
}

impl FlightsConfig {
    pub fn with_rows(rows: usize) -> FlightsConfig {
        FlightsConfig {
            rows,
            ..Default::default()
        }
    }
}

/// Column layout of the generated table.
pub fn flights_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::new("tail_number", DataType::Text),
        Field::new("carrier", DataType::Text),
        Field::new("flight_date", DataType::Date),
        Field::new("origin", DataType::Text),
        Field::new("dest", DataType::Text),
        Field::new("dep_delay", DataType::Float),
        Field::new("air_time", DataType::Float),
        Field::new("distance", DataType::Float),
        Field::new("cancelled", DataType::Bool),
    ]))
}

struct Plane {
    tail: String,
    carrier: &'static str,
    entry_day: i32,
    retire_day: i32,
    home: usize,
}

/// Generate the fact table. Deterministic for a given config.
pub fn generate_flights(config: &FlightsConfig) -> Batch {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let start = calendar::days_from_civil(config.start_year, 1, 1);
    let end = calendar::days_from_civil(config.end_year, 12, 31);
    let span = (end - start).max(1);

    // Fleet size scales with row count; each plane flies ~150 flights.
    let n_planes = (config.rows / 150).clamp(8, 5_000);
    let mut planes = Vec::with_capacity(n_planes);
    for i in 0..n_planes {
        // Entry dates skew early so old cohorts exist; lifetime 8-25 years.
        let entry_frac = rng.random::<f64>().powf(1.3);
        let entry_day = start + (entry_frac * span as f64 * 0.9) as i32;
        let lifetime_days = rng.random_range((8 * 365)..(25 * 365));
        planes.push(Plane {
            tail: format!("N{:05}", 10_000 + i),
            carrier: CARRIERS[i % CARRIERS.len()],
            entry_day,
            retire_day: (entry_day + lifetime_days).min(end),
            home: rng.random_range(0..AIRPORTS.len()),
        });
    }

    // Text cells go straight into the columns' flat buffers.
    let text = || ColumnBuilder::new(DataType::Text, config.rows);
    let (mut tails, mut carriers, mut origins, mut dests) = (text(), text(), text(), text());
    let push = |b: &mut ColumnBuilder, s: &str| b.push_str(s).expect("text builder");
    let mut dates = Vec::with_capacity(config.rows);
    let mut delays: Vec<Option<f64>> = Vec::with_capacity(config.rows);
    let mut air_times = Vec::with_capacity(config.rows);
    let mut distances = Vec::with_capacity(config.rows);
    let mut cancelled = Vec::with_capacity(config.rows);

    let mut plane_idx = 0usize;
    while dates.len() < config.rows {
        let plane = &planes[plane_idx % planes.len()];
        plane_idx += 1;
        let mut day = plane.entry_day;
        let mut hours_since_service = 0.0f64;
        let mut at_home = true;
        // One tour of flights for this plane; planes are revisited
        // round-robin until the row budget is filled.
        let tour = rng.random_range(40..160);
        for _ in 0..tour {
            if day > plane.retire_day || dates.len() >= config.rows {
                break;
            }
            // Route: home <-> random other airport.
            let other = rng.random_range(0..AIRPORTS.len());
            let (o, d) = if at_home {
                (plane.home, other)
            } else {
                (plane.home, plane.home)
            };
            let (o, d) = if at_home { (o, d) } else { (other, plane.home) };
            at_home = !at_home;
            let distance = 200.0 + (o as f64 - d as f64).abs() * 90.0 + rng.random::<f64>() * 800.0;
            let air_time = distance / 7.5 + rng.random::<f64>() * 30.0;

            // Delay: 70% near-zero, heavy tail; ~2% missing (dirty data).
            let delay = if rng.random::<f64>() < 0.02 {
                None
            } else if rng.random::<f64>() < 0.7 {
                Some((rng.random::<f64>() * 14.0 - 4.0).max(-5.0))
            } else {
                Some(rng.random::<f64>().powi(3) * 180.0 + 15.0)
            };

            // Cancellation rises with air time since last service — the
            // signal Scenario 2's line chart recovers.
            let p_cancel = (0.015 + hours_since_service / 4_000.0).min(0.30);
            let is_cancelled = rng.random::<f64>() < p_cancel;

            push(&mut tails, &plane.tail);
            push(&mut carriers, plane.carrier);
            dates.push(day);
            push(&mut origins, AIRPORTS[o].code);
            push(&mut dests, AIRPORTS[d].code);
            delays.push(delay);
            air_times.push(air_time);
            distances.push(distance);
            cancelled.push(is_cancelled);

            if !is_cancelled {
                hours_since_service += air_time / 60.0;
            }
            // Gap to next flight: mostly 1-5 days; occasionally a service
            // visit (> 30 idle days) that resets wear.
            if rng.random::<f64>() < 0.04 {
                day += rng.random_range(31..75);
                hours_since_service = 0.0;
            } else {
                day += rng.random_range(1..6);
            }
        }
    }

    Batch::new(
        flights_schema(),
        vec![
            tails.finish(),
            carriers.finish(),
            Column::from_dates(dates),
            origins.finish(),
            dests.finish(),
            Column::from_opt_floats(delays),
            Column::from_floats(air_times),
            Column::from_floats(distances),
            Column::from_bools(cancelled),
        ],
    )
    .expect("generator produces a valid batch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_value::Value;

    #[test]
    fn deterministic_for_seed() {
        let a = generate_flights(&FlightsConfig::with_rows(500));
        let b = generate_flights(&FlightsConfig::with_rows(500));
        assert_eq!(a, b);
        let c = generate_flights(&FlightsConfig {
            seed: 7,
            ..FlightsConfig::with_rows(500)
        });
        assert_ne!(a, c);
    }

    #[test]
    fn row_count_and_schema() {
        let b = generate_flights(&FlightsConfig::with_rows(2_000));
        assert_eq!(b.num_rows(), 2_000);
        assert_eq!(b.num_columns(), 9);
        assert!(b.column_by_name("tail_number").is_some());
    }

    #[test]
    fn dates_within_range_and_ordered_per_plane() {
        let b = generate_flights(&FlightsConfig::with_rows(3_000));
        let start = calendar::days_from_civil(1987, 1, 1);
        let end = calendar::days_from_civil(2020, 12, 31);
        let dates = b.column_by_name("flight_date").unwrap();
        for i in 0..b.num_rows() {
            let Value::Date(d) = dates.value(i) else {
                panic!("date expected")
            };
            assert!(d >= start && d <= end, "{d} out of range");
        }
    }

    #[test]
    fn has_cancellations_and_missing_delays() {
        let b = generate_flights(&FlightsConfig::with_rows(5_000));
        let cancelled = b.column_by_name("cancelled").unwrap();
        let n_cancelled = cancelled.iter().filter(|v| *v == Value::Bool(true)).count();
        assert!(n_cancelled > 50, "too few cancellations: {n_cancelled}");
        assert!(n_cancelled < 2_000, "too many cancellations: {n_cancelled}");
        let delays = b.column_by_name("dep_delay").unwrap();
        assert!(delays.null_count() > 0, "expected some missing delays");
    }

    #[test]
    fn multiple_cohorts_exist() {
        let b = generate_flights(&FlightsConfig::with_rows(5_000));
        // Distinct entry quarters across planes: count distinct first
        // flight quarter per tail.
        use std::collections::HashMap;
        let tails = b.column_by_name("tail_number").unwrap();
        let dates = b.column_by_name("flight_date").unwrap();
        let mut first: HashMap<String, i32> = HashMap::new();
        for i in 0..b.num_rows() {
            let t = tails.value(i).render();
            let Value::Date(d) = dates.value(i) else {
                panic!()
            };
            first.entry(t).and_modify(|x| *x = (*x).min(d)).or_insert(d);
        }
        let quarters: std::collections::HashSet<i32> = first
            .values()
            .map(|&d| calendar::trunc_date(d, calendar::DateUnit::Quarter))
            .collect();
        assert!(
            quarters.len() >= 5,
            "expected several cohorts, got {}",
            quarters.len()
        );
    }
}
