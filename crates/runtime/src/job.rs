//! The job model: parameter points, grids, and batches.
//!
//! A *job* is one evaluation of a user closure at a [`ParamPoint`] — a
//! named, ordered set of parameter values. A [`Batch`] is a list of
//! points plus a root seed; it is pure data, which is what lets the
//! cache key results by content and the pool derive per-job seeds that
//! do not depend on scheduling.

use crate::rng::derive_seed;
use std::fmt;

/// One parameter value. `F64` keys are canonicalised through their exact
/// shortest round-trip rendering, so equal bit patterns always produce
/// equal cache keys.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A floating-point parameter.
    F64(f64),
    /// A signed integer parameter.
    I64(i64),
    /// An unsigned integer parameter (trial indices, counts).
    U64(u64),
    /// A boolean flag.
    Bool(bool),
    /// A categorical parameter.
    Str(String),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::F64(v) => write!(f, "{v:?}"),
            ParamValue::I64(v) => write!(f, "{v}"),
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::F64(v)
    }
}
impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::I64(v)
    }
}
impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::U64(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// A named, ordered set of parameter values — the identity of a job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamPoint {
    entries: Vec<(String, ParamValue)>,
}

impl ParamPoint {
    /// An empty point (for single-job batches with no parameters).
    pub fn new() -> Self {
        ParamPoint::default()
    }

    /// Adds (or replaces) a parameter; builder style.
    #[must_use]
    pub fn with(mut self, name: &str, value: impl Into<ParamValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Adds (or replaces) a parameter in place.
    pub fn set(&mut self, name: &str, value: impl Into<ParamValue>) {
        let value = value.into();
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Float parameter, panicking with a clear message when absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is missing or is not an `F64`.
    pub fn f64(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(ParamValue::F64(v)) => *v,
            other => panic!("parameter {name:?} is not an f64: {other:?}"),
        }
    }

    /// Unsigned-integer parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is missing or is not a `U64`.
    pub fn u64(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(ParamValue::U64(v)) => *v,
            other => panic!("parameter {name:?} is not a u64: {other:?}"),
        }
    }

    /// String parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is missing or is not a `Str`.
    pub fn str(&self, name: &str) -> &str {
        match self.get(name) {
            Some(ParamValue::Str(v)) => v,
            other => panic!("parameter {name:?} is not a string: {other:?}"),
        }
    }

    /// The canonical `name=value;…` rendering used for cache keys and
    /// job labels. Stable across runs for identical contents.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(name);
            out.push('=');
            out.push_str(&value.to_string());
        }
        out
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// True when the point carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for ParamPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// A cartesian parameter grid: named axes, expanded row-major (the last
/// axis varies fastest), matching how the serial sweep loops were
/// written.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    axes: Vec<(String, Vec<ParamValue>)>,
}

impl Grid {
    /// An empty grid (expands to one empty point).
    pub fn new() -> Self {
        Grid::default()
    }

    /// Starts a [`GridBuilder`] — the preferred construction path,
    /// symmetric with [`Batch::builder`].
    pub fn builder() -> GridBuilder {
        GridBuilder { grid: Grid::default() }
    }

    /// Adds an axis; builder style.
    #[must_use]
    pub fn axis<V: Into<ParamValue>>(mut self, name: &str, values: impl IntoIterator<Item = V>) -> Self {
        self.axes.push((name.to_string(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Number of points the grid expands to.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// True when any axis is empty (the grid expands to nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid to its parameter points.
    pub fn points(&self) -> Vec<ParamPoint> {
        let mut points = vec![ParamPoint::new()];
        for (name, values) in &self.axes {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for point in &points {
                for value in values {
                    next.push(point.clone().with(name, value.clone()));
                }
            }
            points = next;
        }
        points
    }
}

/// Builds a [`Grid`] axis by axis: `Grid::builder().axis(..).build()`.
#[derive(Debug, Clone, Default)]
pub struct GridBuilder {
    grid: Grid,
}

impl GridBuilder {
    /// Adds an axis.
    #[must_use]
    pub fn axis<V: Into<ParamValue>>(
        mut self,
        name: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        self.grid.axes.push((name.to_string(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Finishes the grid.
    pub fn build(self) -> Grid {
        self.grid
    }
}

/// A named list of jobs plus the root seed their RNG streams derive from.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch name; namespaces cache entries and labels the metrics.
    pub name: String,
    /// Root seed; job `i` receives the derived stream seed
    /// [`derive_seed`]`(seed, i)`.
    pub seed: u64,
    /// The parameter points, one per job, in submission order.
    pub points: Vec<ParamPoint>,
}

impl Batch {
    /// Starts a [`BatchBuilder`]:
    /// `Batch::builder("sweep").seed(7).grid(&grid).build()`.
    pub fn builder(name: &str) -> BatchBuilder {
        BatchBuilder { name: name.to_string(), seed: 0, points: Vec::new() }
    }

    /// Appends a job; builder style.
    #[must_use]
    pub fn with_point(mut self, point: ParamPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Appends a job.
    pub fn push(&mut self, point: ParamPoint) {
        self.points.push(point);
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the batch holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The deterministic RNG seed of job `index`.
    pub fn job_seed(&self, index: usize) -> u64 {
        derive_seed(self.seed, index as u64)
    }
}

/// Builds a [`Batch`] from a name, an optional seed, and any mix of
/// point sources.
#[derive(Debug, Clone)]
pub struct BatchBuilder {
    name: String,
    seed: u64,
    points: Vec<ParamPoint>,
}

impl BatchBuilder {
    /// Sets the root seed (defaults to 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends one parameter point.
    #[must_use]
    pub fn point(mut self, point: ParamPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Appends every point of a grid expansion.
    #[must_use]
    pub fn grid(mut self, grid: &Grid) -> Self {
        self.points.extend(grid.points());
        self
    }

    /// Appends `trials` identical-shape points indexed by a `trial`
    /// parameter — the Monte Carlo shape. Indices continue from the
    /// points already added.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        let base = self.points.len();
        self.points
            .extend((0..trials).map(|i| ParamPoint::new().with("trial", (base + i) as u64)));
        self
    }

    /// Finishes the batch.
    pub fn build(self) -> Batch {
        Batch { name: self.name, seed: self.seed, points: self.points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_row_major() {
        let grid = Grid::new().axis("d", [1.0, 2.0]).axis("m", ["air", "tissue"]);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].canonical(), "d=1.0;m=air");
        assert_eq!(points[1].canonical(), "d=1.0;m=tissue");
        assert_eq!(points[3].canonical(), "d=2.0;m=tissue");
        assert_eq!(grid.len(), 4);
    }

    #[test]
    fn canonical_is_stable_and_distinguishes_values() {
        let a = ParamPoint::new().with("x", 0.1).with("n", 3u64);
        let b = ParamPoint::new().with("x", 0.1).with("n", 3u64);
        assert_eq!(a.canonical(), b.canonical());
        let c = ParamPoint::new().with("x", 0.1 + 1e-16).with("n", 3u64);
        // A genuinely different bit pattern must change the key…
        if c.f64("x").to_bits() != a.f64("x").to_bits() {
            assert_ne!(a.canonical(), c.canonical());
        }
        // …and setting twice replaces, not duplicates.
        let d = a.clone().with("x", 0.2);
        assert_eq!(d.canonical(), "x=0.2;n=3");
    }

    #[test]
    fn trial_batches_number_their_jobs() {
        let batch = Batch::builder("mc").seed(7).trials(3).build();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.points[2].u64("trial"), 2);
        assert_ne!(batch.job_seed(0), batch.job_seed(1));
        assert_eq!(
            batch.job_seed(1),
            Batch::builder("other").seed(7).trials(3).build().job_seed(1),
        );
    }

    #[test]
    fn grid_builder_builds_the_same_grid_as_the_chained_axis_calls() {
        let chained = Grid::new().axis("d", [1.0, 2.0]).axis("m", ["air", "tissue"]);
        let built = Grid::builder().axis("d", [1.0, 2.0]).axis("m", ["air", "tissue"]).build();
        assert_eq!(built.len(), chained.len());
        assert_eq!(built.points(), chained.points());
    }

    #[test]
    fn batch_builder_composes_points_grids_and_trials() {
        let grid = Grid::builder().axis("d", [2.0, 4.0]).build();
        let batch = Batch::builder("mixed")
            .seed(9)
            .point(ParamPoint::new().with("x", 1.0))
            .grid(&grid)
            .trials(2)
            .build();
        assert_eq!(batch.name, "mixed");
        assert_eq!(batch.seed, 9);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.points[0].canonical(), "x=1.0");
        assert_eq!(batch.points[1].canonical(), "d=2.0");
        // Trial numbering continues from the points already present.
        assert_eq!(batch.points[3].u64("trial"), 3);
        assert_eq!(batch.points[4].u64("trial"), 4);
    }
}
