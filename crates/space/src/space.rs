//! Configuration spaces, collinearity groups and subspace projection.

use std::collections::HashMap;
use std::sync::Arc;

use crate::config::Configuration;
use crate::param::ParamDef;

/// A named set of parameters that must be treated jointly.
///
/// The paper groups (a) collinear/dependent parameters (a dependent
/// parameter's value is only valid when its controlling parameter is
/// active) and (b) domain-knowledge *joint parameters* such as the executor
/// size `{spark.executor.cores, spark.executor.memory}` (§3.3, §4). During
/// MDA importance calculation all members of a group are permuted together.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGroup {
    /// Human-readable group label, e.g. `executor-size`.
    pub name: String,
    /// Parameter indices (into the owning space) of the members.
    pub members: Vec<usize>,
}

/// Anything tuners can search over: a boxed view of a (possibly projected)
/// configuration space.
///
/// Samplers emit points in the unit hypercube `[0, 1)^dim`; the space turns
/// them into concrete [`Configuration`]s of the *full* parameter set, so an
/// objective function never needs to know whether dimension reduction
/// happened upstream.
pub trait SearchSpace {
    /// Dimensionality of the unit hypercube tuners operate in.
    fn dim(&self) -> usize;

    /// Decodes a unit-cube point to a full configuration.
    fn decode(&self, point: &[f64]) -> Configuration;

    /// Encodes a configuration to a unit-cube point (centre-of-cell).
    fn encode(&self, config: &Configuration) -> Vec<f64>;

    /// The underlying full space.
    fn full_space(&self) -> &ConfigSpace;
}

/// An ordered collection of typed parameters plus collinearity groups.
///
/// A space is immutable once built, so its tables sit behind one `Arc`
/// and a clone is a reference-count bump: every tuner, objective and
/// served session that holds the space shares one copy.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    tables: Arc<Tables>,
}

#[derive(Debug)]
struct Tables {
    name: String,
    params: Vec<ParamDef>,
    groups: Vec<ParamGroup>,
    by_name: HashMap<String, usize>,
}

impl ConfigSpace {
    /// Builds a space.
    ///
    /// # Panics
    ///
    /// Panics on duplicate parameter names, or on groups that reference
    /// out-of-range parameter indices or share members across groups.
    pub fn new(name: impl Into<String>, params: Vec<ParamDef>, groups: Vec<ParamGroup>) -> Self {
        let mut by_name = HashMap::with_capacity(params.len());
        for (i, p) in params.iter().enumerate() {
            let prev = by_name.insert(p.name.clone(), i);
            assert!(prev.is_none(), "duplicate parameter name: {}", p.name);
        }
        let mut seen = vec![false; params.len()];
        for g in &groups {
            assert!(!g.members.is_empty(), "group {} is empty", g.name);
            for &m in &g.members {
                assert!(m < params.len(), "group {} references index {m}", g.name);
                assert!(!seen[m], "parameter index {m} appears in two groups");
                seen[m] = true;
            }
        }
        ConfigSpace {
            tables: Arc::new(Tables {
                name: name.into(),
                params,
                groups,
                by_name,
            }),
        }
    }

    /// Space name.
    pub fn name(&self) -> &str {
        &self.tables.name
    }

    /// All parameter definitions, in index order.
    pub fn params(&self) -> &[ParamDef] {
        &self.tables.params
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params().len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params().is_empty()
    }

    /// The declared collinearity groups.
    pub fn groups(&self) -> &[ParamGroup] {
        &self.tables.groups
    }

    /// Index of a parameter by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.tables.by_name.get(name).copied()
    }

    /// The parameter definition with the given name.
    ///
    /// # Panics
    ///
    /// Panics if no parameter has this name.
    pub fn param(&self, name: &str) -> &ParamDef {
        &self.params()[self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown parameter: {name}"))]
    }

    /// The framework-default configuration.
    pub fn default_configuration(&self) -> Configuration {
        Configuration::new(self.params().iter().map(|p| p.default.clone()).collect())
    }

    /// Validates every value of `config` against its parameter's domain.
    pub fn validate(&self, config: &Configuration) -> Result<(), String> {
        if config.len() != self.params().len() {
            return Err(format!(
                "configuration has {} values, space has {} parameters",
                config.len(),
                self.params().len()
            ));
        }
        for (i, p) in self.params().iter().enumerate() {
            if !p.contains(config.get(i)) {
                return Err(format!(
                    "value {:?} out of domain for {}",
                    config.get(i),
                    p.name
                ));
            }
        }
        Ok(())
    }

    /// Covering partition for grouped permutation importance: the declared
    /// groups, plus one singleton group per ungrouped parameter.
    pub fn covering_groups(&self) -> Vec<ParamGroup> {
        let mut grouped = vec![false; self.params().len()];
        let mut out = self.groups().to_vec();
        for g in self.groups() {
            for &m in &g.members {
                grouped[m] = true;
            }
        }
        for (i, p) in self.params().iter().enumerate() {
            if !grouped[i] {
                out.push(ParamGroup {
                    name: p.name.clone(),
                    members: vec![i],
                });
            }
        }
        out
    }

    /// Projects the space down to `indices`, pinning every other parameter
    /// to its value in `base`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate indices, or if `base` fails
    /// validation.
    pub fn subspace(self: &Arc<Self>, indices: &[usize], base: Configuration) -> Subspace {
        self.validate(&base)
            .unwrap_or_else(|e| panic!("invalid base configuration: {e}"));
        let mut seen = vec![false; self.params().len()];
        for &i in indices {
            assert!(i < self.params().len(), "subspace index {i} out of range");
            assert!(!seen[i], "duplicate subspace index {i}");
            seen[i] = true;
        }
        Subspace {
            full: Arc::clone(self),
            indices: indices.to_vec(),
            base,
        }
    }
}

impl SearchSpace for ConfigSpace {
    fn dim(&self) -> usize {
        self.params().len()
    }

    fn decode(&self, point: &[f64]) -> Configuration {
        assert_eq!(point.len(), self.params().len(), "point dimension mismatch");
        Configuration::new(
            self.params()
                .iter()
                .zip(point)
                .map(|(p, &u)| p.decode(u))
                .collect(),
        )
    }

    fn encode(&self, config: &Configuration) -> Vec<f64> {
        assert_eq!(config.len(), self.params().len(), "configuration mismatch");
        self.params()
            .iter()
            .zip(config.values())
            .map(|(p, v)| p.encode(v))
            .collect()
    }

    fn full_space(&self) -> &ConfigSpace {
        self
    }
}

/// A low-dimensional view of a [`ConfigSpace`], produced by parameter
/// selection: only `indices` vary; everything else is pinned to `base`.
#[derive(Debug, Clone)]
pub struct Subspace {
    full: Arc<ConfigSpace>,
    indices: Vec<usize>,
    base: Configuration,
}

impl Subspace {
    /// Indices (into the full space) of the selected parameters.
    pub fn selected(&self) -> &[usize] {
        &self.indices
    }

    /// The pinned base configuration.
    pub fn base(&self) -> &Configuration {
        &self.base
    }

    /// Names of the selected parameters, in subspace order.
    pub fn selected_names(&self) -> Vec<&str> {
        self.indices
            .iter()
            .map(|&i| self.full.params()[i].name.as_str())
            .collect()
    }
}

impl SearchSpace for Subspace {
    fn dim(&self) -> usize {
        self.indices.len()
    }

    fn decode(&self, point: &[f64]) -> Configuration {
        assert_eq!(point.len(), self.indices.len(), "point dimension mismatch");
        let mut config = self.base.clone();
        for (&idx, &u) in self.indices.iter().zip(point) {
            config.set(idx, self.full.params()[idx].decode(u));
        }
        config
    }

    fn encode(&self, config: &Configuration) -> Vec<f64> {
        assert_eq!(config.len(), self.full.len(), "configuration mismatch");
        self.indices
            .iter()
            .map(|&i| self.full.params()[i].encode(config.get(i)))
            .collect()
    }

    fn full_space(&self) -> &ConfigSpace {
        &self.full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{ParamKind, ParamValue, Unit};

    fn space() -> ConfigSpace {
        ConfigSpace::new(
            "test",
            vec![
                ParamDef::new(
                    "cores",
                    ParamKind::Int { min: 1, max: 8, log: false },
                    ParamValue::Int(2),
                    Unit::Count,
                ),
                ParamDef::new(
                    "frac",
                    ParamKind::Float { min: 0.0, max: 1.0 },
                    ParamValue::Float(0.6),
                    Unit::Ratio,
                ),
                ParamDef::new("flag", ParamKind::Bool, ParamValue::Bool(false), Unit::None),
                ParamDef::new(
                    "codec",
                    ParamKind::categorical(["a", "b", "c"]),
                    ParamValue::Cat(0),
                    Unit::None,
                ),
            ],
            vec![ParamGroup {
                name: "g".into(),
                members: vec![2, 3],
            }],
        )
    }

    #[test]
    fn default_configuration_is_valid() {
        let s = space();
        let c = s.default_configuration();
        assert!(s.validate(&c).is_ok());
        assert_eq!(c.get(0), &ParamValue::Int(2));
    }

    #[test]
    fn decode_encode_round_trip() {
        let s = space();
        let pts = [
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.99, 0.5, 0.9, 0.7],
            vec![0.45, 1.0, 0.49, 0.34],
        ];
        for p in &pts {
            let c = s.decode(p);
            assert!(s.validate(&c).is_ok());
            let c2 = s.decode(&s.encode(&c));
            assert_eq!(c, c2);
        }
    }

    #[test]
    fn covering_groups_partition_everything() {
        let s = space();
        let groups = s.covering_groups();
        let mut covered: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3]);
        // Declared group comes first.
        assert_eq!(groups[0].name, "g");
    }

    #[test]
    fn subspace_pins_base_values() {
        let s = Arc::new(space());
        let mut base = s.default_configuration();
        base.set(3, ParamValue::Cat(2));
        let sub = s.subspace(&[0, 1], base.clone());
        assert_eq!(sub.dim(), 2);
        let c = sub.decode(&[0.99, 0.0]);
        assert_eq!(c.get(0), &ParamValue::Int(8)); // varied
        assert_eq!(c.get(1), &ParamValue::Float(0.0)); // varied
        assert_eq!(c.get(2), &ParamValue::Bool(false)); // pinned
        assert_eq!(c.get(3), &ParamValue::Cat(2)); // pinned
        assert_eq!(sub.selected_names(), vec!["cores", "frac"]);
    }

    #[test]
    fn subspace_encode_projects() {
        let s = Arc::new(space());
        let sub = s.subspace(&[1, 3], s.default_configuration());
        let c = sub.decode(&[0.25, 0.9]);
        let p = sub.encode(&c);
        assert_eq!(p.len(), 2);
        let c2 = sub.decode(&p);
        assert_eq!(c, c2);
    }

    #[test]
    fn validate_rejects_out_of_domain() {
        let s = space();
        let mut c = s.default_configuration();
        c.set(0, ParamValue::Int(99));
        assert!(s.validate(&c).is_err());
        let short = Configuration::new(vec![ParamValue::Int(1)]);
        assert!(s.validate(&short).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let p = ParamDef::new(
            "x",
            ParamKind::Bool,
            ParamValue::Bool(false),
            Unit::None,
        );
        ConfigSpace::new("dup", vec![p.clone(), p], vec![]);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let p = ParamDef::new("x", ParamKind::Bool, ParamValue::Bool(false), Unit::None);
        ConfigSpace::new(
            "bad",
            vec![p],
            vec![
                ParamGroup { name: "a".into(), members: vec![0] },
                ParamGroup { name: "b".into(), members: vec![0] },
            ],
        );
    }

    #[test]
    fn clones_share_one_parameter_table() {
        let s = space();
        let c = s.clone();
        assert!(std::ptr::eq(s.params(), c.params()));
        assert!(std::ptr::eq(s.groups(), c.groups()));
        assert_eq!(c.name(), "test");
        assert_eq!(c.index_of("codec"), Some(3));
        assert_eq!(c.covering_groups(), s.covering_groups());
        let (full, copy) = (Arc::new(s), Arc::new(c));
        let base = full.default_configuration();
        let (a, b) = (full.subspace(&[1, 3], base.clone()), copy.subspace(&[1, 3], base));
        assert_eq!(a.selected_names(), b.selected_names());
        let p = [0.25, 0.9];
        assert_eq!(a.decode(&p), b.decode(&p));
    }

    #[test]
    fn index_of_and_param() {
        let s = space();
        assert_eq!(s.index_of("codec"), Some(3));
        assert_eq!(s.param("flag").name, "flag");
        assert!(s.index_of("missing").is_none());
    }
}
