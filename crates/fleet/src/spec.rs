//! The fleet work specification: a compact, wire-serialisable description
//! of one correction job that every worker can expand into the *same*
//! clip + partition.
//!
//! The coordinator never ships tile geometry — a [`WorkSpec`] is a design
//! recipe (`kind`/`tiles`/`crop`), a [`TilingConfig`], and the **full**
//! [`OpcConfig`]. Workers rebuild the clip and run the halo-aware
//! partitioner locally; because both constructions are deterministic, a
//! tile index alone identifies the exact work unit on every process, and
//! an answer's cache key must be the one the coordinator computed for the
//! tile.
//!
//! This module also owns the *non-panicking* parsing layer that
//! `cardopc-serve` uses for untrusted request bytes (`parse_design`,
//! `parse_tiling`, `parse_opc`, [`validate`], [`sanitize_run_dir`]);
//! serve's `wire` module re-exports it so the HTTP job format and the
//! fleet work-unit format can never drift apart.
//!
//! The `OpcConfig` wire format has no field list of its own: encoding and
//! both decodings (the full work-unit form and the job format's preset +
//! overrides) are visitors of `OpcConfig::walk`, the one exhaustive field
//! walk that also drives validation and the runtime's tile hashes. A new
//! config field is on the wire the moment it is in the walk.

use std::convert::Infallible;
use std::path::{Path, PathBuf};

use cardopc_json::Json;
use cardopc_layout::{Clip, DesignKind, DesignSource, LayerFilter, TARGET_LAYER};
use cardopc_litho::Precision;
use cardopc_opc::{FieldVisitor, OpcConfig, Value};
use cardopc_runtime::TilingConfig;

/// Upper bound on `design.tiles`: neither a correction service nor a
/// worker may let one request allocate an arbitrarily large synthetic
/// design.
pub const MAX_DESIGN_TILES: usize = 16;

/// A request rejection: the message lands in a 400 response body.
pub type BadRequest = String;

/// The design recipe shared by the CLI (`--design`/`--design-tiles`/
/// `--crop`), the service wire format, and the fleet work unit — either a
/// synthetic generator recipe or a GDS file reference, behind the
/// [`DesignSource`] seam.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignSpec {
    /// Where the input clip comes from.
    pub source: DesignSource,
}

impl DesignSpec {
    /// A synthetic-generator spec (the pre-GDS wire format).
    pub fn generated(kind: DesignKind, tiles: usize, crop: Option<f64>) -> DesignSpec {
        DesignSpec {
            source: DesignSource::Generated { kind, tiles, crop },
        }
    }

    /// A GDS-file spec.
    pub fn gds(path: PathBuf, layer: LayerFilter, crop: Option<f64>) -> DesignSpec {
        DesignSpec {
            source: DesignSource::Gds { path, layer, crop },
        }
    }

    /// Builds the input clip. Every process that expands the same spec
    /// sees the same input (generated designs are deterministic; GDS
    /// designs hash-checked per tile by the runtime).
    ///
    /// # Errors
    ///
    /// A message when a GDS source cannot be read or flattened.
    pub fn build_clip(&self) -> Result<Clip, BadRequest> {
        self.source.build_clip()
    }

    fn to_json(&self) -> Json {
        let mut members = match &self.source {
            DesignSource::Generated { kind, tiles, .. } => vec![
                ("kind", Json::Str(kind.name().to_string())),
                ("tiles", Json::num_usize(*tiles)),
            ],
            DesignSource::Gds { path, layer, .. } => vec![
                ("gds", Json::Str(path.to_string_lossy().into_owned())),
                ("layer", Json::Str(layer.to_string())),
            ],
        };
        let crop = match &self.source {
            DesignSource::Generated { crop, .. } | DesignSource::Gds { crop, .. } => *crop,
        };
        if let Some(crop) = crop {
            members.push(("crop", Json::Num(crop)));
        }
        Json::obj(members)
    }
}

/// Parses a `design` object into a spec (strict: unknown keys rejected).
/// GDS paths are taken verbatim — use [`parse_design_with_root`] for
/// untrusted input.
///
/// # Errors
///
/// A human-readable message for any malformed or out-of-range field.
pub fn parse_design(design: &Json) -> Result<DesignSpec, BadRequest> {
    parse_design_with_root(design, None)
}

/// Parses a `design` object. When `gds_root` is given (the untrusted
/// HTTP path), a `gds` reference must be a bare file name — same
/// character policy as `run_dir` — and resolves inside that root, so a
/// request can never read outside the service's run directory.
///
/// # Errors
///
/// A human-readable message for any malformed or out-of-range field.
pub fn parse_design_with_root(
    design: &Json,
    gds_root: Option<&Path>,
) -> Result<DesignSpec, BadRequest> {
    let Json::Obj(_) = design else {
        return Err("'design' must be an object".into());
    };
    if design.get("gds").is_some() {
        reject_unknown(design, &["gds", "layer", "crop"])?;
        let text = design
            .get("gds")
            .expect("checked above")
            .as_str()
            .ok_or("'design.gds' must be a string")?;
        let path = match gds_root {
            Some(root) => {
                let name =
                    sanitize_run_dir(text).map_err(|e| e.replace("'run_dir'", "'design.gds'"))?;
                root.join(name)
            }
            None => PathBuf::from(text),
        };
        let layer = match design.get("layer") {
            None => LayerFilter::Layer(TARGET_LAYER),
            Some(v) => LayerFilter::parse(
                v.as_str()
                    .ok_or("'design.layer' must be a string like \"1\" or \"1:0\"")?,
            )
            .map_err(|e| format!("'design.layer': {e}"))?,
        };
        let crop = parse_crop(design)?;
        check_design(None, crop)?;
        return Ok(DesignSpec::gds(path, layer, crop));
    }
    reject_unknown(design, &["kind", "tiles", "crop"])?;
    let kind = match design
        .get("kind")
        .ok_or("missing 'design.kind' (or 'design.gds')")?
        .as_str()
        .ok_or("'design.kind' must be a string")?
    {
        "gcd" => DesignKind::Gcd,
        "aes" => DesignKind::Aes,
        "dynamicnode" => DesignKind::DynamicNode,
        other => return Err(format!("unknown design kind '{other}'")),
    };
    let tiles = match design.get("tiles") {
        None => 1,
        Some(v) => v.as_usize().ok_or("'design.tiles' must be an integer")?,
    };
    let crop = parse_crop(design)?;
    check_design(Some(tiles), crop)?;
    Ok(DesignSpec::generated(kind, tiles, crop))
}

fn parse_crop(design: &Json) -> Result<Option<f64>, BadRequest> {
    match design.get("crop") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => Ok(Some(v.as_f64().ok_or("'design.crop' must be a number")?)),
    }
}

/// The tile-count and crop rules of a design recipe, one check for the
/// wire parser and the CLI's `--design-tiles` / `--crop`: a synthetic
/// design (`tiles` is `None` for a GDS one) has `1..=MAX_DESIGN_TILES`
/// tiles, and a crop window is a positive, finite width in nm.
///
/// # Errors
///
/// The rule broken, naming the wire field.
pub fn check_design(tiles: Option<usize>, crop: Option<f64>) -> Result<(), BadRequest> {
    if tiles.is_some_and(|n| n == 0 || n > MAX_DESIGN_TILES) {
        return Err(format!("'design.tiles' must be in 1..={MAX_DESIGN_TILES}"));
    }
    if crop.is_some_and(|nm| !(nm.is_finite() && nm > 0.0)) {
        return Err("'design.crop' must be positive and finite".into());
    }
    Ok(())
}

/// Parses a `tiling` object (strict; defaults 4096/1024 nm).
///
/// # Errors
///
/// A message for non-numeric, non-finite, or non-positive extents.
pub fn parse_tiling(tiling: &Json) -> Result<TilingConfig, BadRequest> {
    let Json::Obj(_) = tiling else {
        return Err("'tiling' must be an object".into());
    };
    reject_unknown(tiling, &["tile", "halo"])?;
    let tile_size = match tiling.get("tile") {
        None => 4096.0,
        Some(v) => v.as_f64().ok_or("'tiling.tile' must be a number")?,
    };
    let halo = match tiling.get("halo") {
        None => 1024.0,
        Some(v) => v.as_f64().ok_or("'tiling.halo' must be a number")?,
    };
    if !tile_size.is_finite() || tile_size <= 0.0 {
        return Err("'tiling.tile' must be positive and finite".into());
    }
    if !halo.is_finite() || halo < 0.0 {
        return Err("'tiling.halo' must be non-negative and finite".into());
    }
    Ok(TilingConfig { tile_size, halo })
}

/// The keys the job wire format accepts: a preset, plus the `OpcConfig`
/// fields it may override. Deliberately a subset: the exotic fields
/// (corner pull, relax schedule, conventions) stay preset-controlled.
/// (The fleet work-unit format is different — it carries the *full*
/// config; see [`WorkSpec::from_json`].)
const OPC_KEYS: [&str; 8] = [
    "preset",
    "pitch",
    "iterations",
    "move_step",
    "l_c",
    "l_u",
    "decay_at",
    "precision",
];

/// Parses an `opc` object: a preset name plus overrides.
///
/// # Errors
///
/// A message for unknown presets, unknown keys, or ill-typed overrides.
pub fn parse_opc(opc: &Json) -> Result<OpcConfig, BadRequest> {
    reject_unknown(opc, &OPC_KEYS)?;
    let preset = match opc.get("preset") {
        None => OpcConfig::large_scale(),
        Some(v) => match v.as_str().ok_or("'opc.preset' must be a string")? {
            "via" => OpcConfig::via(),
            "metal" => OpcConfig::metal(),
            "large_scale" => OpcConfig::large_scale(),
            other => return Err(format!("unknown opc preset '{other}'")),
        },
    };
    decode_opc(opc, &preset, false)
}

/// [`OpcConfig::validate`] under the name the wire layers import: every
/// field checked against its range rule, without panicking.
///
/// # Errors
///
/// The first violated constraint, phrased for a 400 response body.
pub fn validate(config: &OpcConfig) -> Result<(), BadRequest> {
    config.validate()
}

/// Validates a `run_dir` name: a single path component of safe
/// characters, so a request can never escape the configured run root.
///
/// # Errors
///
/// A message for empty, oversized, dot-leading, or unsafe names.
pub fn sanitize_run_dir(name: &str) -> Result<String, BadRequest> {
    if name.is_empty() || name.len() > 128 {
        return Err("'run_dir' must be 1..=128 characters".into());
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
    {
        return Err("'run_dir' may only contain [A-Za-z0-9._-]".into());
    }
    if name.starts_with('.') {
        return Err("'run_dir' must not start with '.'".into());
    }
    Ok(name.to_string())
}

/// Rejects object members outside `allowed` (strict wire format).
///
/// # Errors
///
/// Names the first unknown field.
pub fn reject_unknown(obj: &Json, allowed: &[&str]) -> Result<(), BadRequest> {
    if let Json::Obj(members) = obj {
        for (key, _) in members {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown field '{key}'"));
            }
        }
    }
    Ok(())
}

/// One correction job as the fleet ships it: a design recipe, the tiling,
/// and the **full** `OpcConfig`. Every worker expands this into the same
/// clip + partition, so a tile index alone is a complete work unit.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkSpec {
    /// The synthetic-design recipe.
    pub design: DesignSpec,
    /// Tile/halo extents for the partitioner.
    pub tiling: TilingConfig,
    /// The complete correction configuration.
    pub opc: OpcConfig,
}

impl WorkSpec {
    /// Expands the design recipe into the input clip.
    ///
    /// # Errors
    ///
    /// A message when a GDS source cannot be read or flattened.
    pub fn build_clip(&self) -> Result<Clip, BadRequest> {
        self.design.build_clip()
    }

    /// Serialises the spec. Deterministic (insertion-ordered objects,
    /// shortest-roundtrip floats): equal specs produce equal strings, so
    /// the serialised form doubles as a worker-side preparation cache key.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("design", self.design.to_json()),
            (
                "tiling",
                Json::obj(vec![
                    ("tile", Json::Num(self.tiling.tile_size)),
                    ("halo", Json::Num(self.tiling.halo)),
                ]),
            ),
            ("opc", encode_opc(&self.opc)),
        ])
    }

    /// Parses a spec produced by [`WorkSpec::to_json`].
    ///
    /// # Errors
    ///
    /// A message for any missing, unknown, or ill-typed field.
    pub fn from_json(json: &Json) -> Result<WorkSpec, BadRequest> {
        let Json::Obj(_) = json else {
            return Err("work spec must be a JSON object".into());
        };
        reject_unknown(json, &["design", "tiling", "opc"])?;
        let design = parse_design(json.get("design").ok_or("missing 'design'")?)?;
        let tiling = parse_tiling(json.get("tiling").ok_or("missing 'tiling'")?)?;
        // Every field is required, so the base only lends the walk its
        // shape; hostile values stop here, before a worker builds anything.
        let opc = decode_opc(
            json.get("opc").ok_or("missing 'opc'")?,
            &OpcConfig::via(),
            true,
        )?;
        opc.validate()?;
        Ok(WorkSpec {
            design,
            tiling,
            opc,
        })
    }
}

/// Serialises the complete `OpcConfig` in walk order.
fn encode_opc(config: &OpcConfig) -> Json {
    let mut encode = Encode(Vec::new());
    let Ok(_) = config.walk(&mut encode);
    Json::Obj(encode.0)
}

/// The encoding visitor: one member per field. A group that is on is an
/// object its (dotted) fields land in; one that is off is `null`, or the
/// name of the variant "off" stands for.
struct Encode(Vec<(String, Json)>);

impl FieldVisitor for Encode {
    type Error = Infallible;
    fn visit(&mut self, name: &'static str, value: Value) -> Result<Value, Infallible> {
        let json = match value {
            Value::Real(v, _) => Json::Num(v),
            Value::Count(v, _) => Json::num_usize(v),
            Value::Flag(v) => Json::Bool(v),
            Value::Precision(v) => Json::Str(v.name().into()),
            Value::Group(true, _) => Json::Obj(Vec::new()),
            Value::Group(false, None) => Json::Null,
            Value::Group(false, Some(variant)) => Json::Str(variant.into()),
        };
        match (name.split_once('.'), self.0.last_mut()) {
            (Some((_, key)), Some((_, Json::Obj(group)))) => group.push((key.into(), json)),
            _ => self.0.push((name.into(), json)),
        }
        Ok(value)
    }
}

/// Decodes an `opc` object over `base`. `strict` is the fleet work-unit
/// format: every field the walk visits is required and nothing else may
/// be present — a worker must never fall back to a default and silently
/// produce results the coordinator would reject by hash. Otherwise (the
/// job format's overrides) an absent field keeps `base`'s value.
fn decode_opc(json: &Json, base: &OpcConfig, strict: bool) -> Result<OpcConfig, BadRequest> {
    let Json::Obj(members) = json else {
        return Err("'opc' must be an object".into());
    };
    let mut decode = Decode {
        json,
        strict,
        asked: Vec::new(),
    };
    let config = base.walk(&mut decode)?;
    if strict {
        // The walk has asked for every legal key; the strict format
        // admits no others, at either level.
        let asked = |path: &str| decode.asked.contains(&path);
        for (key, value) in members {
            if !asked(key) {
                return Err(format!("unknown field '{key}'"));
            }
            for (inner, _) in value.as_obj().unwrap_or_default() {
                if !asked(&format!("{key}.{inner}")) {
                    return Err(format!("unknown field '{inner}'"));
                }
            }
        }
    }
    Ok(config)
}

/// The decoding visitor: looks each dotted field name up in `json`.
struct Decode<'a> {
    json: &'a Json,
    strict: bool,
    /// Every name the walk has looked up so far.
    asked: Vec<&'static str>,
}

impl FieldVisitor for Decode<'_> {
    type Error = BadRequest;
    fn visit(&mut self, name: &'static str, value: Value) -> Result<Value, BadRequest> {
        self.asked.push(name);
        let member = match name.split_once('.') {
            Some((group, key)) => self.json.get(group).and_then(|g| g.get(key)),
            None => self.json.get(name),
        };
        if member.is_none() && !self.strict {
            return Ok(value);
        }
        // In the strict format a missing scalar reads like an ill-typed one.
        let must_be = |what: &str| format!("'opc.{name}' must be {what}");
        match value {
            Value::Real(_, rule) => match member.and_then(Json::as_f64) {
                Some(v) => Ok(Value::Real(v, rule)),
                None => Err(must_be("a number")),
            },
            Value::Count(_, min) => match member.and_then(Json::as_usize) {
                Some(v) => Ok(Value::Count(v, min)),
                None => Err(must_be("an integer")),
            },
            Value::Flag(_) => match member.and_then(Json::as_bool) {
                Some(v) => Ok(Value::Flag(v)),
                None => Err(must_be("a boolean")),
            },
            // Exactly "f64" or "f32"; no aliases, no silent default.
            Value::Precision(_) => match member.map(|j| j.as_str().and_then(Precision::parse)) {
                Some(Some(v)) => Ok(Value::Precision(v)),
                Some(None) => Err(must_be("\"f64\" or \"f32\"")),
                None => Err(format!("missing 'opc.{name}' (\"f64\" or \"f32\")")),
            },
            Value::Group(_, off) => match (member, off) {
                (None, None) => Err(format!("missing 'opc.{name}' (use null to disable)")),
                (Some(Json::Null), None) => Ok(Value::Group(false, off)),
                (Some(Json::Str(s)), Some(variant)) if s == variant => Ok(Value::Group(false, off)),
                // A non-object here fails on the group's first field.
                (Some(Json::Obj(_)), _) | (Some(_), None) => Ok(Value::Group(true, off)),
                // `convention` is the one group with a named "off"; the
                // message has always spelled out its one field.
                (_, Some(variant)) => Err(format!(
                    "'opc.{name}' must be \"{variant}\" or {{\"metal_spacing\": nm}}"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_mrc::MrcRules;
    use cardopc_opc::{MeasureConvention, SrafConfig};

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn design_parses_and_builds() {
        let spec = parse_design(&parse(r#"{"kind": "gcd", "tiles": 2, "crop": 2048.0}"#)).unwrap();
        assert_eq!(
            spec,
            DesignSpec::generated(DesignKind::Gcd, 2, Some(2048.0))
        );
        assert!(!spec.build_clip().unwrap().targets().is_empty());
    }

    #[test]
    fn gds_design_parses_and_roundtrips() {
        let spec = parse_design(&parse(r#"{"gds": "/tmp/chip.gds", "layer": "5:1"}"#)).unwrap();
        assert_eq!(
            spec,
            DesignSpec::gds(
                PathBuf::from("/tmp/chip.gds"),
                LayerFilter::LayerDatatype(5, 1),
                None
            )
        );
        // Layer defaults to the export convention's target layer.
        let spec = parse_design(&parse(r#"{"gds": "a.gds", "crop": 512.0}"#)).unwrap();
        assert_eq!(
            spec,
            DesignSpec::gds(
                PathBuf::from("a.gds"),
                LayerFilter::Layer(TARGET_LAYER),
                Some(512.0)
            )
        );
        // Wire round trip preserves the source exactly.
        let back = parse_design(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn gds_paths_are_root_confined_for_untrusted_callers() {
        let root = Path::new("/srv/runs");
        let spec = parse_design_with_root(&parse(r#"{"gds": "chip.gds"}"#), Some(root)).unwrap();
        assert_eq!(
            spec,
            DesignSpec::gds(
                PathBuf::from("/srv/runs/chip.gds"),
                LayerFilter::Layer(TARGET_LAYER),
                None
            )
        );
        for bad in [
            r#"{"gds": "../evil.gds"}"#,
            r#"{"gds": "a/b.gds"}"#,
            r#"{"gds": ".hidden"}"#,
            r#"{"gds": ""}"#,
        ] {
            let err = parse_design_with_root(&parse(bad), Some(root)).unwrap_err();
            assert!(err.contains("'design.gds'"), "{bad}: {err}");
        }
    }

    #[test]
    fn gds_design_rejections() {
        for bad in [
            r#"{"gds": 7}"#,
            r#"{"gds": "a.gds", "layer": "nope"}"#,
            r#"{"gds": "a.gds", "layer": 5}"#,
            r#"{"gds": "a.gds", "kind": "gcd"}"#,
            r#"{"gds": "a.gds", "tiles": 2}"#,
            r#"{"gds": "a.gds", "crop": -5}"#,
        ] {
            assert!(parse_design(&parse(bad)).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn design_rejections() {
        for bad in [
            r#"{"kind": "warp-core"}"#,
            r#"{"kind": "gcd", "tiles": 0}"#,
            r#"{"kind": "gcd", "tiles": 1000}"#,
            r#"{"kind": "gcd", "crop": -5}"#,
            r#"{"kind": "gcd", "surprise": 1}"#,
            r#"{}"#,
            r#"[1]"#,
        ] {
            assert!(parse_design(&parse(bad)).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn tiling_defaults_and_rejections() {
        let t = parse_tiling(&parse("{}")).unwrap();
        assert_eq!(t.tile_size, 4096.0);
        assert_eq!(t.halo, 1024.0);
        for bad in [
            r#"{"tile": 0}"#,
            r#"{"halo": -1}"#,
            r#"{"tile": "big"}"#,
            r#"{"mystery": 1}"#,
        ] {
            assert!(parse_tiling(&parse(bad)).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn opc_presets_and_overrides() {
        let c = parse_opc(&parse(
            r#"{"preset": "via", "pitch": 16.0, "iterations": 3}"#,
        ))
        .unwrap();
        assert_eq!(c.pitch, 16.0);
        assert_eq!(c.iterations, 3);
        for bad in [r#"{"preset": "nope"}"#, r#"{"mystery": 1}"#] {
            assert!(parse_opc(&parse(bad)).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn opc_precision_is_strict() {
        use cardopc_litho::Precision;
        // Absent: the job format defaults to the preset's f64.
        assert_eq!(parse_opc(&parse("{}")).unwrap().precision, Precision::F64);
        let c = parse_opc(&parse(r#"{"precision": "f32"}"#)).unwrap();
        assert_eq!(c.precision, Precision::F32);
        let c = parse_opc(&parse(r#"{"precision": "f64"}"#)).unwrap();
        assert_eq!(c.precision, Precision::F64);
        // Anything else names the field in the rejection.
        for bad in [
            r#"{"precision": "f16"}"#,
            r#"{"precision": "F32"}"#,
            r#"{"precision": "double"}"#,
            r#"{"precision": 32}"#,
            r#"{"precision": null}"#,
        ] {
            let err = parse_opc(&parse(bad)).unwrap_err();
            assert!(
                err.contains("'opc.precision'"),
                "message must name the field: {err}"
            );
        }
    }

    #[test]
    fn work_spec_requires_precision_and_roundtrips_f32() {
        let mut opc = OpcConfig::large_scale();
        opc.precision = cardopc_litho::Precision::F32;
        let spec = WorkSpec {
            design: DesignSpec::generated(DesignKind::Gcd, 1, None),
            tiling: TilingConfig {
                tile_size: 1024.0,
                halo: 256.0,
            },
            opc,
        };
        let text = spec.to_json().to_string_compact();
        assert!(text.contains(r#""precision":"f32""#), "wire form: {text}");
        let back = WorkSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        // A spec with the field stripped must be rejected, not defaulted.
        let stripped = text.replace(r#","precision":"f32""#, "");
        let err = WorkSpec::from_json(&Json::parse(&stripped).unwrap()).unwrap_err();
        assert!(
            err.contains("missing 'opc.precision'"),
            "message was: {err}"
        );
    }

    fn tiling() -> TilingConfig {
        TilingConfig {
            tile_size: 1024.0,
            halo: 256.0,
        }
    }

    /// The wire text of a spec carrying `opc`.
    fn wire(opc: &OpcConfig) -> String {
        let design = DesignSpec::generated(DesignKind::Gcd, 1, None);
        let spec = WorkSpec {
            design,
            tiling: tiling(),
            opc: opc.clone(),
        };
        spec.to_json().to_string_compact()
    }

    /// Every group on, so the fixture text carries every field of the walk.
    fn all_groups_on() -> OpcConfig {
        OpcConfig {
            convention: MeasureConvention::MetalSpacing(60.0),
            ..OpcConfig::via()
        }
    }

    /// The generated sweep: whatever field the config walk visits is on
    /// the wire (mutating it changes the encoding) and survives the round
    /// trip — no hand-kept field list to forget a new knob in.
    #[test]
    fn every_walked_field_reaches_the_wire_and_round_trips() {
        OpcConfig::for_each_field_mutation(|field, base, changed| {
            let text = wire(changed);
            assert_ne!(text, wire(base), "{field} is not encoded");
            let back = WorkSpec::from_json(&parse(&text)).unwrap();
            assert_eq!(&back.opc, changed, "{field} does not round-trip");
        });
    }

    /// Hostile work units: values a well-formed coordinator never sends
    /// must be rejected at parse time with a field-naming message, not
    /// reach a worker (where `metal_spacing: 0` was an unbounded loop and
    /// a negative MRC rule a handler panic).
    #[test]
    fn work_spec_rejects_out_of_range_and_non_finite_values() {
        let good = wire(&all_groups_on());
        assert!(WorkSpec::from_json(&parse(&good)).is_ok());
        let reject = |from: &str, to: &str, field: &str| {
            assert!(good.contains(from), "fixture lost {from}");
            let err = WorkSpec::from_json(&parse(&good.replacen(from, to, 1))).unwrap_err();
            assert!(
                err.starts_with(&format!("'opc.{field}' must ")),
                "{to}: {err}"
            );
        };
        for bad in ["0", "-60"] {
            let to = format!(r#""metal_spacing":{bad}"#);
            reject(r#""metal_spacing":60"#, &to, "convention.metal_spacing");
        }
        for (from, key) in [
            (r#""length_ratio":0.6"#, "sraf.length_ratio"),
            (r#""width":40"#, "sraf.width"),
            (r#""distance":100"#, "sraf.distance"),
            (r#""min_edge":60"#, "sraf.min_edge"),
            (r#""min_space":18"#, "mrc.min_space"),
            (r#""min_width":25"#, "mrc.min_width"),
            (r#""min_area":800"#, "mrc.min_area"),
            (r#""max_curvature":0.3333333333333333"#, "mrc.max_curvature"),
        ] {
            let name = key.split_once('.').unwrap().1;
            for bad in ["0", "-1"] {
                reject(from, &format!(r#""{name}":{bad}"#), key);
            }
        }
        for bad in ["-0.01", "1.01"] {
            let to = format!(r#""relax_strength":{bad}"#);
            reject(r#""relax_strength":0.3"#, &to, "relax_strength");
        }
        // No real-valued field may carry ±∞. JSON text cannot spell it
        // (`Json::parse` rejects the overflowing `1e999`), so the value is
        // put into the parsed tree in place of a sentinel.
        fn infinite(v: &mut Json, sign: f64) {
            match v {
                Json::Num(x) if *x == 7e300 => *x = sign * f64::INFINITY,
                Json::Arr(items) => items.iter_mut().for_each(|v| infinite(v, sign)),
                Json::Obj(members) => members.iter_mut().for_each(|(_, v)| infinite(v, sign)),
                _ => {}
            }
        }
        for (from, key) in [
            (r#""l_c":20"#, "l_c"),
            (r#""tension":0.6"#, "tension"),
            (r#""corner_pull":1"#, "corner_pull"),
            (r#""epe_search":40"#, "epe_search"),
            (r#""dose_delta":0.02"#, "dose_delta"),
            (r#""width":40"#, "sraf.width"),
            (r#""min_area":800"#, "mrc.min_area"),
            (r#""metal_spacing":60"#, "convention.metal_spacing"),
        ] {
            let name = key.rsplit('.').next().unwrap();
            assert!(good.contains(from), "fixture lost {from}");
            for sign in [1.0, -1.0] {
                let mut spec = parse(&good.replacen(from, &format!(r#""{name}":7e300"#), 1));
                infinite(&mut spec, sign);
                let err = WorkSpec::from_json(&spec).unwrap_err();
                assert!(
                    err.starts_with(&format!("'opc.{key}' must ")),
                    "{key}: {err}"
                );
            }
            let overflow = good.replacen(from, &format!(r#""{name}":1e999"#), 1);
            assert!(Json::parse(&overflow).is_err(), "{key}: 1e999 parsed");
        }
    }

    /// The rejections that predate the single walk keep their exact text.
    #[test]
    fn historical_rejection_messages_are_unchanged() {
        let good = wire(&all_groups_on());
        let message = |from: &str, to: &str| {
            assert!(good.contains(from), "fixture lost {from}");
            WorkSpec::from_json(&parse(&good.replacen(from, to, 1))).unwrap_err()
        };
        for (from, to, expected) in [
            (
                r#""l_c":20"#,
                r#""l_c":0"#,
                "'opc.l_c' must be positive and finite",
            ),
            (
                r#""pitch":4"#,
                r#""pitch":-4"#,
                "'opc.pitch' must be positive and finite",
            ),
            (
                r#""iterations":32"#,
                r#""iterations":0"#,
                "'opc.iterations' must be at least 1",
            ),
            (
                r#""decay_factor":0.5"#,
                r#""decay_factor":2"#,
                "'opc.decay_factor' must be in (0, 1]",
            ),
            (
                r#""epe_search":40"#,
                r#""epe_search":0"#,
                "'opc.epe_search' must be positive",
            ),
            (
                r#""dose_delta":0.02"#,
                r#""dose_delta":-1"#,
                "'opc.dose_delta' must be non-negative",
            ),
            (r#""l_u":30"#, r#""l_u":"x""#, "'opc.l_u' must be a number"),
            (
                r#""decay_at":16"#,
                r#""decay_at":1.5"#,
                "'opc.decay_at' must be an integer",
            ),
            (
                r#""spline_normals":false"#,
                r#""spline_normals":0"#,
                "'opc.spline_normals' must be a boolean",
            ),
            (
                r#""width":40"#,
                r#""width":null"#,
                "'opc.sraf.width' must be a number",
            ),
            (
                r#""min_area":800,"#,
                "",
                "'opc.mrc.min_area' must be a number",
            ),
            (
                r#""metal_spacing":60"#,
                r#""metal_spacing":"far""#,
                "'opc.convention.metal_spacing' must be a number",
            ),
            (
                r#""convention":{"metal_spacing":60}"#,
                r#""convention":"edges""#,
                "'opc.convention' must be \"via_edge_centers\" or {\"metal_spacing\": nm}",
            ),
            (
                r#""precision":"f64""#,
                r#""precision":"f16""#,
                "'opc.precision' must be \"f64\" or \"f32\"",
            ),
            (
                r#","precision":"f64""#,
                "",
                "missing 'opc.precision' (\"f64\" or \"f32\")",
            ),
            (
                r#""pitch":4"#,
                r#""pitch":4,"pitchfork":1"#,
                "unknown field 'pitchfork'",
            ),
            (
                r#""width":40"#,
                r#""width":40,"depth":1"#,
                "unknown field 'depth'",
            ),
        ] {
            assert_eq!(message(from, to), expected);
        }
        let err = message(
            r#""mrc":{"min_space":18,"min_width":25,"min_area":800,"max_curvature":0.3333333333333333},"#,
            "",
        );
        assert_eq!(err, "missing 'opc.mrc' (use null to disable)");
        // The job format's overrides share the decoder and its messages.
        for (bad, expected) in [
            (r#"{"pitch": "fine"}"#, "'opc.pitch' must be a number"),
            (
                r#"{"iterations": 2.5}"#,
                "'opc.iterations' must be an integer",
            ),
            (r#"{"tension": 0.5}"#, "unknown field 'tension'"),
            (r#"[]"#, "'opc' must be an object"),
        ] {
            assert_eq!(parse_opc(&parse(bad)).unwrap_err(), expected);
        }
    }

    #[test]
    fn run_dir_sanitizer() {
        assert_eq!(sanitize_run_dir("job_7.retry-2").unwrap(), "job_7.retry-2");
        for bad in ["", ".hidden", "a/b", "../up", &"x".repeat(129)] {
            assert!(sanitize_run_dir(bad).is_err(), "accepted: {bad}");
        }
    }

    /// Every field — including both `Option`s populated, a non-default
    /// convention, and awkward floats — must survive the wire round trip
    /// bit-exactly. `OpcConfig` derives `PartialEq`, so one comparison
    /// covers the lot.
    #[test]
    fn work_spec_roundtrips_every_field() {
        let mut opc = OpcConfig::metal();
        opc.l_c = 0.1 + 0.2;
        opc.l_u = 1.0 / 3.0;
        opc.move_step = 0.875;
        opc.iterations = 7;
        opc.decay_at = 5;
        opc.decay_factor = 0.75;
        opc.tension = 0.3;
        opc.corner_pull = 1.25;
        opc.smooth_window = 3;
        opc.spline_normals = !opc.spline_normals;
        opc.relax_every = 2;
        opc.relax_strength = 0.125;
        opc.samples_per_segment = 9;
        opc.epe_search = 33.5;
        opc.pitch = 12.0;
        opc.dose_delta = 0.02;
        opc.sraf = Some(SrafConfig {
            length_ratio: 0.55,
            width: 21.0,
            distance: 63.0,
            min_edge: 97.0,
        });
        opc.mrc = Some(MrcRules {
            min_space: 24.0,
            min_width: 20.0,
            min_area: 400.0,
            max_curvature: 0.05,
        });
        opc.convention = MeasureConvention::MetalSpacing(60.0);
        let spec = WorkSpec {
            design: DesignSpec::generated(DesignKind::Aes, 3, Some(1536.0)),
            tiling: TilingConfig {
                tile_size: 1024.0,
                halo: 256.0,
            },
            opc,
        };
        let text = spec.to_json().to_string_compact();
        let back = WorkSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        // And the None/ViaEdgeCenters arm of each branch.
        let mut bare = OpcConfig::via();
        bare.sraf = None;
        bare.mrc = None;
        bare.convention = MeasureConvention::ViaEdgeCenters;
        let spec2 = WorkSpec {
            design: DesignSpec::generated(DesignKind::Gcd, 1, None),
            tiling: spec.tiling,
            opc: bare,
        };
        let text2 = spec2.to_json().to_string_compact();
        let back2 = WorkSpec::from_json(&Json::parse(&text2).unwrap()).unwrap();
        assert_eq!(back2, spec2);
        // Determinism: equal specs serialise to equal strings.
        assert_eq!(spec2.to_json().to_string_compact(), text2);
    }

    #[test]
    fn work_spec_rejects_unknown_and_missing_fields() {
        let spec = WorkSpec {
            design: DesignSpec::generated(DesignKind::Gcd, 1, None),
            tiling: TilingConfig {
                tile_size: 1024.0,
                halo: 256.0,
            },
            opc: OpcConfig::large_scale(),
        };
        let good = spec.to_json().to_string_compact();
        assert!(WorkSpec::from_json(&Json::parse(&good).unwrap()).is_ok());
        // Dropping any opc field must fail: the full-config format has no
        // defaults.
        let Json::Obj(mut members) = spec.to_json() else {
            unreachable!()
        };
        let Json::Obj(opc_members) = members.remove(2).1 else {
            unreachable!()
        };
        for drop in 0..opc_members.len() {
            let mut trimmed = opc_members.clone();
            let (name, _) = trimmed.remove(drop);
            let mutated = Json::Obj(vec![
                ("design".into(), spec.design.to_json()),
                (
                    "tiling".into(),
                    Json::obj(vec![
                        ("tile", Json::Num(1024.0)),
                        ("halo", Json::Num(256.0)),
                    ]),
                ),
                ("opc".into(), Json::Obj(trimmed)),
            ]);
            assert!(
                WorkSpec::from_json(&mutated).is_err(),
                "parsed without '{name}'"
            );
        }
        for bad in [r#"{"design": {"kind": "gcd"}}"#, r#"{"extra": 1}"#, "[]"] {
            assert!(WorkSpec::from_json(&Json::parse(bad).unwrap()).is_err());
        }
    }

    /// The exact wire strings the parent commit produced (before the
    /// encoder became a visitor of `OpcConfig::walk`): key order and
    /// number formatting are the worker-side preparation cache key, and a
    /// mixed-version fleet must keep agreeing on them.
    #[test]
    fn golden_work_spec_wire_strings_are_unchanged() {
        let mut opc = OpcConfig::metal();
        opc.l_c = 0.1 + 0.2;
        opc.sraf = Some(SrafConfig {
            length_ratio: 0.55,
            width: 21.0,
            distance: 63.0,
            min_edge: 97.0,
        });
        opc.precision = cardopc_litho::Precision::F32;
        let tiling = TilingConfig {
            tile_size: 1024.0,
            halo: 256.0,
        };
        let metal = WorkSpec {
            design: DesignSpec::generated(DesignKind::Aes, 3, Some(1536.0)),
            tiling,
            opc,
        };
        let via = WorkSpec {
            design: DesignSpec::gds(
                PathBuf::from("chip.gds"),
                LayerFilter::Layer(TARGET_LAYER),
                None,
            ),
            tiling,
            opc: OpcConfig::via(),
        };
        let golden_metal = concat!(
            r#"{"design":{"kind":"aes","tiles":3,"crop":1536},"#,
            r#""tiling":{"tile":1024,"halo":256},"#,
            r#""opc":{"l_c":0.30000000000000004,"l_u":30,"move_step":4,"iterations":32,"#,
            r#""decay_at":16,"decay_factor":0.5,"tension":0.6,"corner_pull":-0.7,"#,
            r#""smooth_window":0,"spline_normals":false,"relax_every":4,"#,
            r#""relax_strength":0.15,"samples_per_segment":8,"epe_search":40,"pitch":4,"#,
            r#""dose_delta":0.02,"#,
            r#""sraf":{"length_ratio":0.55,"width":21,"distance":63,"min_edge":97},"#,
            r#""mrc":{"min_space":18,"min_width":25,"min_area":800,"#,
            r#""max_curvature":0.3333333333333333},"#,
            r#""convention":{"metal_spacing":60},"precision":"f32"}}"#,
        );
        let golden_via = concat!(
            r#"{"design":{"gds":"chip.gds","layer":"1"},"#,
            r#""tiling":{"tile":1024,"halo":256},"#,
            r#""opc":{"l_c":20,"l_u":30,"move_step":2,"iterations":32,"#,
            r#""decay_at":16,"decay_factor":0.5,"tension":0.6,"corner_pull":1,"#,
            r#""smooth_window":0,"spline_normals":false,"relax_every":2,"#,
            r#""relax_strength":0.3,"samples_per_segment":8,"epe_search":40,"pitch":4,"#,
            r#""dose_delta":0.02,"#,
            r#""sraf":{"length_ratio":0.6,"width":40,"distance":100,"min_edge":60},"#,
            r#""mrc":{"min_space":18,"min_width":25,"min_area":800,"#,
            r#""max_curvature":0.3333333333333333},"#,
            r#""convention":"via_edge_centers","precision":"f64"}}"#,
        );
        for (spec, golden) in [(metal, golden_metal), (via, golden_via)] {
            assert_eq!(spec.to_json().to_string_compact(), golden);
            let back = WorkSpec::from_json(&Json::parse(golden).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }
}
