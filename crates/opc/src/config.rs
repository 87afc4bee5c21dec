//! CardOPC flow configuration (the paper's §IV parameter sets).
//!
//! Everything that must see *every* field — validation here, tile hashing
//! in `cardopc-runtime`, the worker wire format in `cardopc-fleet` — is a
//! [`FieldVisitor`] driven by [`OpcConfig::walk`], the one exhaustive field
//! walk. To add a field: add it to the struct and to the walk — the
//! compiler lists the rest.

use crate::eval::MeasureConvention;
use cardopc_litho::Precision;
use cardopc_mrc::MrcRules;

/// Rule-based SRAF insertion parameters (Fig. 3(a)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SrafConfig {
    /// Ratio `r` between SRAF length and the main pattern edge length.
    pub length_ratio: f64,
    /// SRAF width, nm.
    pub width: f64,
    /// Distance `d_ms` between the main pattern edge and the SRAF, nm.
    pub distance: f64,
    /// Minimum main-pattern edge length that receives an SRAF, nm.
    pub min_edge: f64,
}

impl Default for SrafConfig {
    fn default() -> Self {
        SrafConfig {
            length_ratio: 0.6,
            // Stadium-shaped spline assists: 40 nm drawn keeps the assist
            // sub-printing at the overdose corner while staying above the
            // width rule.
            width: 40.0,
            distance: 100.0,
            min_edge: 60.0,
        }
    }
}

/// Configuration of the CardOPC flow.
///
/// The presets [`OpcConfig::via`], [`OpcConfig::metal`] and
/// [`OpcConfig::large_scale`] mirror the parameters published in §IV:
/// dissection lengths `l_c`/`l_u`, the per-iteration moving distance, the
/// iteration budget with its halfway decay, and the cardinal tension
/// `s = 0.6`.
#[derive(Clone, Debug, PartialEq)]
pub struct OpcConfig {
    /// Corner dissection segment length `l_c`, nm.
    pub l_c: f64,
    /// Uniform dissection segment length `l_u`, nm.
    pub l_u: f64,
    /// Maximum control point move per iteration, nm.
    pub move_step: f64,
    /// Number of correction iterations.
    pub iterations: usize,
    /// Iteration at which the moving distance decays.
    pub decay_at: usize,
    /// Decay factor applied at [`OpcConfig::decay_at`].
    pub decay_factor: f64,
    /// Cardinal spline tension `s`.
    pub tension: f64,
    /// Corner control point interpolation strength (Fig. 3(c)): `1` =
    /// fully interpolated (pulled inside the corner), `0` = straight
    /// segment midpoints, negative = extrapolated outward (line-end
    /// extension bias).
    pub corner_pull: f64,
    /// Half-width `W` of the neighbour-averaging window (Eq. 7).
    pub smooth_window: usize,
    /// Move control points along current spline normals (Eq. 8) rather
    /// than frozen target-anchor normals; see
    /// [`crate::CorrectionStep`]'s field of the same name.
    pub spline_normals: bool,
    /// Every this many iterations the control polygon is relaxed toward
    /// its neighbour midpoints (spike suppression; 0 disables).
    pub relax_every: usize,
    /// Relaxation strength in `[0, 1]`.
    pub relax_strength: f64,
    /// Polyline samples per spline segment when rasterising.
    pub samples_per_segment: usize,
    /// EPE normal-search range, nm.
    pub epe_search: f64,
    /// Simulation pixel pitch, nm.
    pub pitch: f64,
    /// Dose variation (±) defining the PV-band corners.
    pub dose_delta: f64,
    /// Rule-based SRAF insertion; `None` disables it (e.g. when SRAFs come
    /// from an external tool or from ILT fitting).
    pub sraf: Option<SrafConfig>,
    /// Mask rules checked and resolved after optimisation; `None` skips
    /// the MRC stage.
    pub mrc: Option<MrcRules>,
    /// EPE measure point convention used for the final evaluation.
    pub convention: MeasureConvention,
    /// Interior arithmetic of the lithography simulation backend. Geometry,
    /// MRC and spline fitting always run in `f64`; `F32` downcasts only the
    /// SOCS convolution hot loop (see `DESIGN.md` §12 for the accuracy
    /// contract).
    pub precision: Precision,
}

impl OpcConfig {
    /// Via-layer preset (§IV-A): `l_c = 20`, `l_u = 30`, 2 nm moves,
    /// 32 iterations with ×0.5 decay at 16, `s = 0.6`.
    pub fn via() -> Self {
        OpcConfig {
            l_c: 20.0,
            l_u: 30.0,
            move_step: 2.0,
            iterations: 32,
            decay_at: 16,
            decay_factor: 0.5,
            tension: 0.6,
            corner_pull: 1.0,
            // Engine-recalibrated loop dynamics (see DESIGN.md §4 and the
            // field docs): per-point feedback without neighbour smoothing,
            // and moves along the frozen Manhattan anchor normals. On this
            // substrate's optics the spline's inter-point coupling turns
            // smoothed/tilted moves into persistent edge ripple.
            smooth_window: 0,
            spline_normals: false,
            relax_every: 2,
            relax_strength: 0.3,
            samples_per_segment: 8,
            epe_search: 40.0,
            pitch: 4.0,
            dose_delta: 0.02,
            sraf: Some(SrafConfig::default()),
            mrc: Some(MrcRules::opc_node()),
            convention: MeasureConvention::ViaEdgeCenters,
            precision: Precision::F64,
        }
    }

    /// Metal-layer preset (§IV-A): `l_c = 30` and 4 nm moves as published.
    ///
    /// The published `l_u = 60` nm uniform dissection is recalibrated to
    /// 30 nm for this repository's optics: denser control points halve
    /// CardOPC's metal EPE here while the same density *hurts* the
    /// rectilinear baseline (jog artifacts) — the granularity advantage of
    /// the control-point representation the paper argues for.
    pub fn metal() -> Self {
        OpcConfig {
            l_c: 30.0,
            l_u: 30.0,
            move_step: 4.0,
            corner_pull: -0.7,
            relax_every: 4,
            relax_strength: 0.15,
            convention: MeasureConvention::MetalSpacing(60.0),
            ..OpcConfig::via()
        }
    }

    /// Large-scale preset (§IV-B): `l_c = l_u = 40`, 8 nm moves,
    /// 10 iterations with decay at 8.
    pub fn large_scale() -> Self {
        OpcConfig {
            l_c: 40.0,
            l_u: 40.0,
            move_step: 8.0,
            iterations: 10,
            decay_at: 8,
            pitch: 8.0,
            sraf: None,
            // With only 10 iterations the feedback cannot compensate the
            // relaxation's contraction; the coarse 40 nm dissection keeps
            // boundaries smooth on its own.
            relax_every: 0,
            convention: MeasureConvention::MetalSpacing(60.0),
            ..OpcConfig::via()
        }
    }
}

// --------------------------------------------------------- the field walk

/// Range rule of a real-valued field: a predicate over finite values, and
/// how a violation of it (or of finiteness) reads after the field's name.
#[derive(Clone, Copy)]
pub struct Rule(fn(f64) -> bool, &'static str);

const POSITIVE: Rule = Rule(|v| v > 0.0, "must be positive and finite");
// Same rule, in the words `epe_search` rejections have always used.
const POSITIVE_TERSE: Rule = Rule(|v| v > 0.0, "must be positive");
const NON_NEGATIVE: Rule = Rule(|v| v >= 0.0, "must be non-negative");
const FINITE: Rule = Rule(|_| true, "must be finite");
const UNIT: Rule = Rule(|v| (0.0..=1.0).contains(&v), "must be in [0, 1]");
const UNIT_OPEN: Rule = Rule(|v| v > 0.0 && v <= 1.0, "must be in (0, 1]");

/// One field as [`OpcConfig::walk`] hands it to a visitor, and as the
/// visitor hands it back (same kind, possibly another value).
#[derive(Clone, Copy)]
pub enum Value {
    /// A real-valued field and its range rule.
    Real(f64, Rule),
    /// A count and its minimum.
    Count(usize, usize),
    /// A flag.
    Flag(bool),
    /// The simulation precision.
    Precision(Precision),
    /// The switch of an optional field group (`sraf`, `mrc`, `convention`):
    /// whether the group's fields are visited next — starting from the
    /// group's defaults when a visitor switches it on — and, where "off"
    /// is a named variant rather than `None`, that variant's wire name
    /// (`"via_edge_centers"`).
    Group(bool, Option<&'static str>),
}

/// What [`OpcConfig::walk`] drives: called once per field, in walk order,
/// with the field's dotted wire name (`"l_c"`, `"sraf.width"`).
pub trait FieldVisitor {
    /// Why a walk stops early.
    type Error;
    /// Answers with the value the walk's result carries for this field.
    fn visit(&mut self, name: &'static str, value: Value) -> Result<Value, Self::Error>;
}

/// Visits one field and unwraps the visitor's answer to the field's type.
macro_rules! visit {
    ($v:ident, $name:expr, $Kind:ident($($part:expr),+)) => {
        match $v.visit($name, Value::$Kind($($part),+))? {
            Value::$Kind(answer, ..) => answer,
            _ => unreachable!("a visitor answers with the kind it was given"),
        }
    };
}

/// Destructures `$src` as `$T` with no rest pattern and rebuilds it field
/// by field: `name: Kind(rule)` entries are visited under the name
/// `$prefix` + `name`; `name => expr` entries (after the `;`) are rebuilt
/// by `expr`, which sees every field as a reference.
macro_rules! walk_fields {
    ($v:ident, $prefix:literal, $T:ident {
        $($field:ident: $Kind:ident($($rule:expr)?)),*;
        $($custom:ident => $build:expr,)*
    } = $src:expr) => {{
        let $T { $($field,)* $($custom,)* } = $src;
        $T {
            $($field: visit!($v, concat!($prefix, stringify!($field)), $Kind(*$field $(, $rule)?)),)*
            $($custom: $build,)*
        }
    }};
}

impl OpcConfig {
    /// The one exhaustive walk over every field, in the order that fixes
    /// tile-hash input and wire key order. The result is rebuilt from the
    /// visitor's answers, so readers (hash, encode, validate) answer with
    /// what they were given and writers (decode, mutate) with something
    /// else. The patterns have no `..`: a new field is a compile error
    /// here, and nowhere else.
    ///
    /// # Errors
    ///
    /// The first error `v` returns.
    pub fn walk<V: FieldVisitor>(&self, v: &mut V) -> Result<OpcConfig, V::Error> {
        Ok(walk_fields!(v, "", OpcConfig {
            l_c: Real(POSITIVE),
            l_u: Real(POSITIVE),
            move_step: Real(POSITIVE),
            iterations: Count(1),
            decay_at: Count(0),
            decay_factor: Real(UNIT_OPEN),
            tension: Real(FINITE),
            corner_pull: Real(FINITE),
            smooth_window: Count(0),
            spline_normals: Flag(),
            relax_every: Count(0),
            relax_strength: Real(UNIT),
            samples_per_segment: Count(1),
            epe_search: Real(POSITIVE_TERSE),
            pitch: Real(POSITIVE),
            dose_delta: Real(NON_NEGATIVE);
            sraf => match visit!(v, "sraf", Group(sraf.is_some(), None)) {
                false => None,
                true => Some(walk_fields!(v, "sraf.", SrafConfig {
                    length_ratio: Real(POSITIVE),
                    width: Real(POSITIVE),
                    distance: Real(POSITIVE),
                    min_edge: Real(POSITIVE);
                } = &sraf.unwrap_or_default())),
            },
            mrc => match visit!(v, "mrc", Group(mrc.is_some(), None)) {
                false => None,
                true => Some(walk_fields!(v, "mrc.", MrcRules {
                    min_space: Real(POSITIVE),
                    min_width: Real(POSITIVE),
                    min_area: Real(POSITIVE),
                    max_curvature: Real(POSITIVE);
                } = &mrc.unwrap_or_default())),
            },
            convention => {
                let spacing = match convention {
                    MeasureConvention::ViaEdgeCenters => None,
                    MeasureConvention::MetalSpacing(nm) => Some(*nm),
                };
                let off = Some("via_edge_centers");
                match visit!(v, "convention", Group(spacing.is_some(), off)) {
                    false => MeasureConvention::ViaEdgeCenters,
                    true => MeasureConvention::MetalSpacing(visit!(
                        v,
                        "convention.metal_spacing",
                        Real(spacing.unwrap_or(60.0), POSITIVE)
                    )),
                }
            },
            precision => visit!(v, "precision", Precision(*precision)),
        } = self))
    }

    /// Checks every field against its range rule — the non-panicking
    /// validation untrusted configurations (HTTP job bodies, fleet work
    /// units) go through before anything is built from them.
    ///
    /// # Errors
    ///
    /// The first violated rule, naming the field as the wire formats spell
    /// it: `'opc.sraf.width' must be positive and finite`.
    pub fn validate(&self) -> Result<(), String> {
        self.walk(&mut Validate).map(drop)
    }

    /// [`OpcConfig::validate`] for build-time constants.
    ///
    /// # Panics
    ///
    /// Panics with the violated rule.
    pub fn assert_valid(&self) {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid OpcConfig: {e}"));
    }

    /// The sweep that proves a consumer of the walk — a hash, a codec —
    /// reacts to every field: calls `check(field, base, changed)` for
    /// every single-field mutation of a base with every optional group on
    /// (all fields, and each switch turning off) and of one with every
    /// group off (each switch turning on).
    pub fn for_each_field_mutation(mut check: impl FnMut(&'static str, &OpcConfig, &OpcConfig)) {
        let all_on = OpcConfig {
            convention: MeasureConvention::MetalSpacing(60.0),
            ..OpcConfig::via()
        };
        let all_off = OpcConfig {
            sraf: None,
            mrc: None,
            ..OpcConfig::via()
        };
        for base in [all_on, all_off] {
            for (field, changed) in base.field_mutations() {
                check(field, &base, &changed);
            }
        }
    }

    /// One copy of `self` per field the walk visits, each with exactly
    /// that field changed to another valid value (a group's own entry
    /// flips its switch; a group that is off contributes only that),
    /// labelled with the field's name.
    fn field_mutations(&self) -> Vec<(&'static str, OpcConfig)> {
        let mut out = Vec::new();
        loop {
            let mut mutate = Mutate {
                skip: out.len(),
                hit: None,
            };
            let Ok(changed) = self.walk(&mut mutate);
            match mutate.hit {
                Some(name) => out.push((name, changed)),
                None => return out,
            }
        }
    }
}

/// The visitor behind [`OpcConfig::validate`].
struct Validate;

impl FieldVisitor for Validate {
    type Error = String;
    fn visit(&mut self, name: &'static str, value: Value) -> Result<Value, String> {
        match value {
            Value::Real(v, Rule(in_range, must)) if !(v.is_finite() && in_range(v)) => {
                Err(format!("'opc.{name}' {must}"))
            }
            Value::Count(v, min) if v < min => Err(format!("'opc.{name}' must be at least {min}")),
            _ => Ok(value),
        }
    }
}

/// The visitor behind [`OpcConfig::for_each_field_mutation`]: lets `skip`
/// fields pass, changes the next one and records its name.
struct Mutate {
    skip: usize,
    hit: Option<&'static str>,
}

impl FieldVisitor for Mutate {
    type Error = std::convert::Infallible;
    fn visit(&mut self, name: &'static str, value: Value) -> Result<Value, Self::Error> {
        if self.hit.is_some() || self.skip > 0 {
            self.skip = self.skip.saturating_sub(1);
            return Ok(value);
        }
        self.hit = Some(name);
        Ok(match value {
            // Halving, or adding a quarter, stays inside every rule above.
            Value::Real(v, rule) => Value::Real(if v > 0.5 { v * 0.5 } else { v + 0.25 }, rule),
            Value::Count(v, min) => Value::Count(v + 1, min),
            Value::Flag(v) => Value::Flag(!v),
            Value::Precision(Precision::F64) => Value::Precision(Precision::F32),
            Value::Precision(Precision::F32) => Value::Precision(Precision::F64),
            Value::Group(on, off) => Value::Group(!on, off),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let via = OpcConfig::via();
        assert_eq!(via.l_c, 20.0);
        assert_eq!(via.l_u, 30.0);
        assert_eq!(via.move_step, 2.0);
        assert_eq!(via.iterations, 32);
        assert_eq!(via.decay_at, 16);
        assert_eq!(via.decay_factor, 0.5);
        assert_eq!(via.tension, 0.6);

        let metal = OpcConfig::metal();
        assert_eq!(metal.l_c, 30.0);
        // l_u recalibrated from the published 60 nm for this engine (see
        // the preset docs).
        assert_eq!(metal.l_u, 30.0);
        assert_eq!(metal.move_step, 4.0);

        let large = OpcConfig::large_scale();
        assert_eq!(large.l_c, 40.0);
        assert_eq!(large.l_u, 40.0);
        assert_eq!(large.move_step, 8.0);
        assert_eq!(large.iterations, 10);
        assert_eq!(large.decay_at, 8);
    }

    #[test]
    fn presets_are_valid() {
        OpcConfig::via().assert_valid();
        OpcConfig::metal().assert_valid();
        OpcConfig::large_scale().assert_valid();
    }

    #[test]
    #[should_panic(expected = "'opc.move_step' must be positive and finite")]
    fn invalid_step_panics() {
        let mut c = OpcConfig::via();
        c.move_step = 0.0;
        c.assert_valid();
    }

    /// A preset with every optional group switched on, so a sweep over it
    /// reaches every field the walk knows.
    fn all_groups_on() -> OpcConfig {
        OpcConfig {
            convention: MeasureConvention::MetalSpacing(60.0),
            ..OpcConfig::via()
        }
    }

    #[test]
    fn readers_get_an_identical_config_back() {
        for c in [
            OpcConfig::via(),
            OpcConfig::metal(),
            OpcConfig::large_scale(),
        ] {
            assert_eq!(c.walk(&mut Validate).unwrap(), c);
        }
    }

    #[test]
    fn field_mutations_visit_every_field_once_and_stay_valid() {
        let base = all_groups_on();
        let mutations = base.field_mutations();
        // 16 scalars + precision, three group switches, 4 + 4 + 1 group fields.
        assert_eq!(mutations.len(), 17 + 3 + 9);
        for (i, (name, changed)) in mutations.iter().enumerate() {
            assert_ne!(*changed, base, "{name} did not change");
            changed.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                mutations[..i]
                    .iter()
                    .all(|(n, c)| n != name && c != changed),
                "{name} visited twice"
            );
        }
        // A switched-off group contributes its switch only.
        let names: Vec<_> = OpcConfig::large_scale()
            .field_mutations()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert!(names.contains(&"sraf") && !names.contains(&"sraf.width"));
    }

    /// Overwrites the `target`-th real-valued field with `value`.
    struct Poison {
        target: usize,
        value: f64,
        reals: usize,
        hit: Option<&'static str>,
    }

    impl FieldVisitor for Poison {
        type Error = std::convert::Infallible;
        fn visit(&mut self, name: &'static str, value: Value) -> Result<Value, Self::Error> {
            let Value::Real(_, rule) = value else {
                return Ok(value);
            };
            self.reals += 1;
            if self.reals - 1 != self.target {
                return Ok(value);
            }
            self.hit = Some(name);
            Ok(Value::Real(self.value, rule))
        }
    }

    #[test]
    fn validate_rejects_a_non_finite_value_in_every_real_field() {
        let base = all_groups_on();
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = 0;
            loop {
                let mut poison = Poison {
                    target: poisoned,
                    value,
                    reals: 0,
                    hit: None,
                };
                let Ok(config) = base.walk(&mut poison);
                let Some(name) = poison.hit else { break };
                let err = config.validate().unwrap_err();
                assert!(err.starts_with(&format!("'opc.{name}' must ")), "{err}");
                poisoned += 1;
            }
            assert_eq!(poisoned, 10 + 9, "real-valued fields reached");
        }
    }

    #[test]
    fn validate_enforces_each_rule_with_its_historical_message() {
        let reject = |edit: &dyn Fn(&mut OpcConfig), message: &str| {
            let mut c = all_groups_on();
            edit(&mut c);
            assert_eq!(c.validate().unwrap_err(), message);
        };
        reject(&|c| c.l_c = 0.0, "'opc.l_c' must be positive and finite");
        reject(
            &|c| c.pitch = -4.0,
            "'opc.pitch' must be positive and finite",
        );
        reject(&|c| c.iterations = 0, "'opc.iterations' must be at least 1");
        reject(
            &|c| c.samples_per_segment = 0,
            "'opc.samples_per_segment' must be at least 1",
        );
        reject(
            &|c| c.decay_factor = 1.5,
            "'opc.decay_factor' must be in (0, 1]",
        );
        reject(
            &|c| c.decay_factor = 0.0,
            "'opc.decay_factor' must be in (0, 1]",
        );
        reject(&|c| c.tension = f64::NAN, "'opc.tension' must be finite");
        reject(&|c| c.epe_search = 0.0, "'opc.epe_search' must be positive");
        reject(
            &|c| c.dose_delta = -0.01,
            "'opc.dose_delta' must be non-negative",
        );
        reject(
            &|c| c.relax_strength = 1.01,
            "'opc.relax_strength' must be in [0, 1]",
        );
        reject(
            &|c| c.relax_strength = -0.01,
            "'opc.relax_strength' must be in [0, 1]",
        );
        reject(
            &|c| c.sraf.as_mut().unwrap().min_edge = 0.0,
            "'opc.sraf.min_edge' must be positive and finite",
        );
        reject(
            &|c| c.mrc.as_mut().unwrap().min_space = -1.0,
            "'opc.mrc.min_space' must be positive and finite",
        );
        reject(
            &|c| c.convention = MeasureConvention::MetalSpacing(0.0),
            "'opc.convention.metal_spacing' must be positive and finite",
        );
        // The boundary values the rules admit.
        let mut c = all_groups_on();
        c.decay_factor = 1.0;
        c.dose_delta = 0.0;
        c.relax_strength = 0.0;
        c.corner_pull = -3.0;
        c.validate().unwrap();
    }
}
