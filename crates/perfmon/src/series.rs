//! Labelled data series — the output format of the figure harnesses.
//!
//! Every `figN` benchmark binary produces a [`FigureReport`]: a set of named
//! series (one per curve in the paper's plot) over a common x axis.  The
//! report renders both as an aligned text table (for eyeballing) and as CSV
//! (for regenerating the plot with any plotting tool).

use serde::{Deserialize, Serialize};

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// X coordinate (working-set bytes, insert ratio, thread count, …).
    pub x: f64,
    /// Y coordinate (throughput, misses per op, …).
    pub y: f64,
}

/// A named curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataSeries {
    /// Curve label ("CPHash", "LockHash", "Memcached-style", …).
    pub label: String,
    /// Points in x order.
    pub points: Vec<DataPoint>,
}

impl DataSeries {
    /// An empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        DataSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(DataPoint { x, y });
    }

    /// Y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }
}

/// A full figure: axis labels plus one or more series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureReport {
    /// Figure title ("Figure 5: throughput vs working set size").
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<DataSeries>,
}

impl FigureReport {
    /// An empty report.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureReport {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series and return a mutable handle to it.
    pub fn add_series(&mut self, label: impl Into<String>) -> &mut DataSeries {
        self.series.push(DataSeries::new(label));
        self.series.last_mut().expect("just pushed")
    }

    /// Find a series by label.
    pub fn series_named(&self, label: &str) -> Option<&DataSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: `x,<label1>,<label2>,…` with one row per distinct x.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN x values"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&self.x_label.to_string());
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(",{y}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!("{:>16}", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {:>16}", s.label));
        }
        out.push('\n');
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN x values"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for x in xs {
            out.push_str(&format!("{x:>16.3}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(" {y:>16.3}")),
                    None => out.push_str(&format!(" {:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("({} y-axis)\n", self.y_label));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulate_points() {
        let mut s = DataSeries::new("CPHash");
        s.push(1.0, 10.0);
        s.push(2.0, 20.0);
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
    }

    #[test]
    fn report_renders_csv_and_table() {
        let mut fig = FigureReport::new("Figure X", "working_set", "throughput");
        {
            let a = fig.add_series("CPHash");
            a.push(1024.0, 100.0);
            a.push(2048.0, 150.0);
        }
        {
            let b = fig.add_series("LockHash");
            b.push(1024.0, 80.0);
        }
        let csv = fig.to_csv();
        assert!(csv.contains("working_set,CPHash,LockHash"));
        assert!(csv.contains("1024,100,80"));
        assert!(csv.contains("2048,150,"));
        let table = fig.to_table();
        assert!(table.contains("Figure X"));
        assert!(table.contains("CPHash"));
        assert!(fig.series_named("LockHash").is_some());
        assert!(fig.series_named("nope").is_none());
    }
}
