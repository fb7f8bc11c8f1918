//! `benchmark compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both medians, the change, the bound from `BENCHMARK.json`,
//! A's own spread and a verdict. It compares; it does not claim — a claim
//! needs the alternating pairs the README describes.

use crate::json::Json;

/// The contract file, compiled in so the bounds travel with the binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A's own windows spread wider than the bound (or a side has no
    /// number): the pair cannot show a change of the bound's size.
    Unresolved,
}

/// `a`, `b`: medians. `spread`: [`quartile_spread`] of A's windows.
/// `bound`: the share by which the metric may worsen.
pub fn verdict(
    a: Option<f64>,
    b: Option<f64>,
    spread: Option<f64>,
    bound: f64,
    higher_is_better: bool,
) -> Verdict {
    let (Some(a), Some(b), Some(spread)) = (a, b, spread) else {
        return Verdict::Unresolved;
    };
    if spread > bound || a == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = if higher_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Distance between the first and third quartile of `values` as a share of
/// their median — the spread the driver and the claim rule use, computed
/// as Python's `statistics.quantiles(values, n=4)` does. With five windows
/// it gives the lowest and the highest half weight, where min–max would
/// let one odd window decide.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quantile = |q: f64| {
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo - 1] + frac * (v[lo.min(n - 1)] - v[lo - 1])
    };
    let median = quantile(0.5);
    (median != 0.0).then(|| (quantile(0.75) - quantile(0.25)) / median)
}

/// The fields of `meta` two runs must share to be comparable.
const FINGERPRINT: [&str; 4] = ["cpu_model", "nproc", "profile", "seed"];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if j.get("schema").and_then(Json::as_str) != Some("tm-benchmark/v1") {
        return Err(format!("{path}: not a tm-benchmark/v1 run file"));
    }
    if j.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a --quick run is a smoke test, not a measurement"
        ));
    }
    Ok(j)
}

/// The rows and whether any is `worse`.
pub fn compare(a: &Json, b: &Json, contract: &Json) -> Result<(Vec<String>, bool), String> {
    for key in FINGERPRINT {
        let (x, y) = (a.at(&["meta", key]), b.at(&["meta", key]));
        if x.is_none() || x != y {
            return Err(format!("meta.{key} differs: {x:?} vs {y:?}"));
        }
    }
    let mut rows = vec![format!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>7} {:>9}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "A spread"
    )];
    let mut any_worse = false;
    for (workload, wa) in a.get("workloads").map_or(&[][..], Json::entries) {
        let wb = b
            .at(&["workloads", workload])
            .ok_or_else(|| format!("B has no workload {workload}"))?;
        for m in contract.get("end_to_end").map_or(&[][..], Json::items) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("contract: metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("contract: metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let num =
                |w: &Json, field: &str| w.at(&["end_to_end", name, field]).and_then(Json::as_f64);
            let (ma, mb) = (num(wa, "median"), num(wb, "median"));
            let values: Vec<f64> = wa
                .at(&["end_to_end", name, "values"])
                .map_or(&[][..], Json::items)
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let spread = quartile_spread(&values);
            let v = verdict(ma, mb, spread, bound, higher);
            any_worse |= v == Verdict::Worse;
            let show = |x: Option<f64>| x.map_or("null".to_string(), |x| format!("{x:.4}"));
            let pct =
                |x: Option<f64>| x.map_or("null".to_string(), |x| format!("{:+.1}%", x * 100.0));
            let change = ma
                .zip(mb)
                .filter(|(a, _)| *a != 0.0)
                .map(|(a, b)| (b - a) / a);
            rows.push(format!(
                "{workload:<16} {name:<16} {:>12} {:>12} {:>8} {:>7} {:>9}  {}",
                show(ma),
                show(mb),
                pct(change),
                pct(Some(bound)),
                pct(spread),
                format!("{v:?}").to_lowercase(),
            ));
        }
    }
    Ok((rows, any_worse))
}

/// Exit code: 0 no regression, 1 some row is `worse`, 2 the files cannot
/// be compared.
pub fn cmd(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return 2;
    };
    let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare(&a, &b, &contract))
    {
        Ok((rows, any_worse)) => {
            rows.iter().for_each(|r| println!("{r}"));
            i32::from(any_worse)
        }
        Err(e) => {
            eprintln!("cannot compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Verdict::*;
        // Lower is better, bound 5 %.
        assert_eq!(
            verdict(Some(100.0), Some(102.0), Some(0.02), 0.05, false),
            Same
        );
        assert_eq!(
            verdict(Some(100.0), Some(106.0), Some(0.02), 0.05, false),
            Worse
        );
        assert_eq!(
            verdict(Some(100.0), Some(90.0), Some(0.02), 0.05, false),
            Better
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(Some(100.0), Some(106.0), Some(0.02), 0.05, true),
            Better
        );
        assert_eq!(
            verdict(Some(100.0), Some(94.0), Some(0.02), 0.05, true),
            Worse
        );
        // A's own spread wider than the bound hides any change that size.
        assert_eq!(
            verdict(Some(100.0), Some(150.0), Some(0.08), 0.05, false),
            Unresolved
        );
        assert_eq!(verdict(None, Some(1.0), Some(0.0), 0.05, false), Unresolved);
        assert_eq!(verdict(Some(1.0), None, Some(0.0), 0.05, false), Unresolved);
    }

    fn run_file(seed: u64, ops: f64) -> Json {
        obj! {
            "schema" => "tm-benchmark/v1",
            "quick" => false,
            "meta" => obj! { "cpu_model" => "x", "nproc" => 2u64, "profile" => "release", "seed" => seed },
            "workloads" => obj! { "kv_mixed" => obj! { "end_to_end" => obj! {
                "ops_per_s" => obj! { "median" => ops, "values" => vec![ops * 0.99, ops, ops * 1.01] },
            } } },
        }
    }

    #[test]
    fn compare_flags_a_regression_and_refuses_mismatched_runs() {
        let contract = obj! { "end_to_end" => vec![
            obj! { "name" => "ops_per_s", "unit" => "ops/s", "better" => "higher", "bound" => 0.05 },
        ] };
        let (rows, worse) = compare(&run_file(1, 100.0), &run_file(1, 101.0), &contract).unwrap();
        assert!(!worse && rows[1].ends_with("same"), "{rows:?}");
        let (rows, worse) = compare(&run_file(1, 100.0), &run_file(1, 90.0), &contract).unwrap();
        assert!(worse && rows[1].ends_with("worse"), "{rows:?}");
        let err = compare(&run_file(1, 100.0), &run_file(2, 100.0), &contract).unwrap_err();
        assert!(err.contains("meta.seed"), "{err}");
    }

    #[test]
    fn quartile_spread_matches_pythons_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        let s = quartile_spread(&[3.0, 10.0, 1.0, 4.0, 2.0]).unwrap();
        assert!((s - 5.5 / 3.0).abs() < 1e-12, "{s}");
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), None);
        assert_eq!(quartile_spread(&[]), None);
    }

    #[test]
    fn quick_and_foreign_files_are_refused() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest_compare");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, j: Json| {
            let path = dir.join(name);
            std::fs::write(&path, j.pretty()).unwrap();
            path.to_str().unwrap().to_string()
        };
        assert!(load(&write("full.json", run_file(1, 100.0))).is_ok());
        let mut quick = run_file(1, 100.0);
        let Json::Obj(kv) = &mut quick else {
            unreachable!()
        };
        kv[1].1 = Json::Bool(true);
        let err = load(&write("quick.json", quick)).unwrap_err();
        assert!(err.contains("--quick"), "{err}");
        assert!(load(&write("other.json", obj! { "schema" => "x" })).is_err());
    }

    #[test]
    fn the_contract_names_the_four_workloads() {
        let contract = Json::parse(BENCHMARK_JSON).unwrap();
        let named: Vec<&str> = contract
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let specs: Vec<&str> = crate::workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(named, specs);
    }
}
