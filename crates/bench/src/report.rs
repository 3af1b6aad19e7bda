//! Human-readable tables plus machine-readable JSON records.

use fedroad_core::jsonio::{JsonError, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The directory the bench binaries write their reports to.
pub const RESULTS_DIR: &str = "results";

/// Writes a versioned report's `text` to `dir/file_name` (creating `dir`),
/// then re-parses the text and checks it with the report's `validate`, so
/// a document that fails its own schema is never reported as saved.
pub fn save_checked(
    dir: &Path,
    file_name: &str,
    text: &str,
    validate: fn(&Value) -> Result<(), JsonError>,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    fs::write(&path, text)?;
    let doc = Value::parse(text)
        .map_err(|e| io::Error::other(format!("written report does not re-parse: {e}")))?;
    validate(&doc)
        .map_err(|e| io::Error::other(format!("written report fails its schema: {e}")))?;
    Ok(path)
}

/// A generic experiment record: one measured point of a figure or table.
#[derive(Clone, Debug)]
pub struct Record {
    /// Experiment id, e.g. `"fig7"`.
    pub experiment: String,
    /// Dataset name, e.g. `"CAL-S"`.
    pub dataset: String,
    /// Series within the plot (method/estimator/queue name).
    pub series: String,
    /// X coordinate (hop bucket, silo count, congestion level, …).
    pub x: String,
    /// Named measured values.
    pub values: Vec<(String, f64)>,
}

/// Collects records and writes them to `results/<experiment>.json`.
#[derive(Debug, Default)]
pub struct Reporter {
    records: Vec<Record>,
}

impl Reporter {
    /// Creates an empty reporter.
    pub fn new() -> Self {
        Reporter::default()
    }

    /// Adds one record.
    pub fn record(
        &mut self,
        experiment: &str,
        dataset: &str,
        series: &str,
        x: impl ToString,
        values: Vec<(String, f64)>,
    ) {
        self.records.push(Record {
            experiment: experiment.into(),
            dataset: dataset.into(),
            series: series.into(),
            x: x.to_string(),
            values,
        });
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records as one JSON array (the persisted format).
    pub fn to_json(&self) -> String {
        Value::Arr(self.records.iter().map(record_to_value).collect()).to_json()
    }

    /// Writes all records as JSON to `results/<name>.json` (directory
    /// created on demand) and reports the path.
    pub fn save(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = Path::new(RESULTS_DIR);
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn record_to_value(r: &Record) -> Value {
    Value::Obj(vec![
        ("experiment".into(), Value::Str(r.experiment.clone())),
        ("dataset".into(), Value::Str(r.dataset.clone())),
        ("series".into(), Value::Str(r.series.clone())),
        ("x".into(), Value::Str(r.x.clone())),
        (
            "values".into(),
            Value::Arr(
                r.values
                    .iter()
                    .map(|(name, v)| Value::Arr(vec![Value::Str(name.clone()), Value::Float(*v)]))
                    .collect(),
            ),
        ),
    ])
}

/// Prints a section header.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints one aligned table: a label column plus numeric columns.
pub fn table(label_header: &str, columns: &[&str], rows: &[(String, Vec<f64>)]) {
    print!("{label_header:<26}");
    for c in columns {
        print!(" {c:>14}");
    }
    println!();
    for (label, vals) in rows {
        print!("{label:<26}");
        for v in vals {
            if *v == 0.0 {
                print!(" {:>14}", "0");
            } else if v.abs() >= 1000.0 {
                print!(" {v:>14.0}");
            } else if v.abs() >= 1.0 {
                print!(" {v:>14.2}");
            } else {
                print!(" {v:>14.4}");
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_to_json() {
        let mut r = Reporter::new();
        r.record(
            "figX",
            "CAL-S",
            "Naive-Dijk",
            "0-50",
            vec![("sacs".into(), 123.0)],
        );
        assert_eq!(r.len(), 1);
        let json = r.to_json();
        assert!(json.contains("Naive-Dijk"));
        assert!(json.contains("figX"));
        assert!(json.contains("sacs"));
        // The document must re-parse as valid JSON.
        fedroad_core::jsonio::Value::parse(&json).unwrap();
    }
}
