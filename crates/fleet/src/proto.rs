//! The coordinator ↔ worker wire schema.
//!
//! Four endpoints, all over the same HTTP/1.1 subset `cardopc-serve`
//! speaks (`Content-Length` framing; workers additionally honour
//! `Connection: keep-alive`, so a dispatch lane reuses one stream for
//! every request it sends):
//!
//! | Method & path          | Purpose                                         |
//! |------------------------|-------------------------------------------------|
//! | `POST /v1/tiles`       | correct a run of congruent tiles; 200 body =    |
//! |                        | the entry line of its first tile                |
//! | `GET /v1/records`      | the worker's cached entry lines (JSONL)         |
//! | `GET /healthz`         | heartbeat (liveness + tiles-answered counter)   |
//! | `POST /admin/shutdown` | stop accepting and let the process exit 0       |
//!
//! A dispatch body is `{"spec": <work spec>, "tiles": [<index>, …]}` with
//! 1 ..= [`MAX_BATCH`] indices — the [`WorkSpec`] is self-contained, so a
//! worker needs no session state and any worker can serve any tile of any
//! job; a single tile is a batch of one, there is no other request form.
//! The coordinator sends congruent tiles together (see [`crate::coord`]):
//! the worker corrects (or replays) the first and answers its entry line,
//! `\n`-terminated — the pattern's window-relative correction under its
//! cache key, the line `cache.jsonl` and `tiles.jsonl` hold. The
//! coordinator places it on every tile of the run and builds their tile
//! lines from its own partition, so nothing positional crosses the wire.
//! A tile that fails is a 500 with `{"error": …, "tile": <index>}`.

use crate::spec::{reject_unknown, BadRequest, WorkSpec};
use cardopc_json::Json;

/// Most tiles one dispatch request may carry — the one constant the
/// coordinator's claim and [`parse_dispatch`] share. Large enough that a
/// run of replayed tiles amortises the per-request spec handling to
/// nothing, small enough that a worker's window is not the whole queue
/// ([`MAX_RESPONSE_BYTES`](crate::client::MAX_RESPONSE_BYTES) bounds an
/// answer).
pub const MAX_BATCH: usize = 64;

/// Serialises a dispatch request for `tiles` (1 ..= [`MAX_BATCH`] indices).
pub fn dispatch_body(spec: &WorkSpec, tiles: &[usize]) -> String {
    let tiles = tiles.iter().map(|&t| Json::num_usize(t)).collect();
    Json::obj(vec![("spec", spec.to_json()), ("tiles", Json::Arr(tiles))]).to_string_compact()
}

/// Parses a `POST /v1/tiles` body.
///
/// # Errors
///
/// A message for malformed JSON, unknown fields, an invalid spec, or a
/// tile list that is not 1 ..= [`MAX_BATCH`] non-negative integers;
/// workers answer 400 with it.
pub fn parse_dispatch(body: &str) -> Result<(WorkSpec, Vec<usize>), BadRequest> {
    let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(_) = &json else {
        return Err("dispatch body must be a JSON object".into());
    };
    reject_unknown(&json, &["spec", "tiles"])?;
    let spec = WorkSpec::from_json(json.get("spec").ok_or("missing 'spec'")?)?;
    let tiles = json
        .get("tiles")
        .and_then(Json::as_arr)
        .ok_or("'tiles' must be an array of tile indices")?;
    if tiles.is_empty() || tiles.len() > MAX_BATCH {
        return Err(format!(
            "'tiles' must hold 1 to {MAX_BATCH} indices, got {}",
            tiles.len()
        ));
    }
    let tiles = tiles
        .iter()
        .map(|t| {
            t.as_usize()
                .ok_or("'tiles' entries must be non-negative integers")
        })
        .collect::<Result<Vec<usize>, _>>()?;
    Ok((spec, tiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DesignSpec;
    use cardopc_layout::DesignKind;
    use cardopc_opc::OpcConfig;
    use cardopc_runtime::TilingConfig;

    fn spec() -> WorkSpec {
        WorkSpec {
            design: DesignSpec::generated(DesignKind::Gcd, 1, Some(2048.0)),
            tiling: TilingConfig {
                tile_size: 1024.0,
                halo: 512.0,
            },
            opc: OpcConfig::large_scale(),
        }
    }

    #[test]
    fn dispatch_roundtrips() {
        let full: Vec<usize> = (0..MAX_BATCH).map(|i| i * 3).collect();
        for tiles in [vec![3], full] {
            let body = dispatch_body(&spec(), &tiles);
            let (back, back_tiles) = parse_dispatch(&body).unwrap();
            assert_eq!(back, spec());
            assert_eq!(back_tiles, tiles);
        }
    }

    #[test]
    fn dispatch_rejections() {
        let good = dispatch_body(&spec(), &[0]);
        let with_tiles = |tiles: &str| good.replace("\"tiles\":[0]", &format!("\"tiles\":{tiles}"));
        let too_many: Vec<usize> = (0..=MAX_BATCH).collect();
        for bad in [
            "not json",
            "[]",
            r#"{"tiles": [0]}"#,
            r#"{"spec": {}, "tiles": [0]}"#,
            &with_tiles("[]"),
            &with_tiles(&format!("{too_many:?}")),
            &with_tiles("[-1]"),
            &with_tiles("[0,1.5]"),
            &with_tiles("[\"0\"]"),
            &with_tiles("0"),
            &with_tiles("{\"0\":0}"),
            // The pre-batch request form is just an unknown key now.
            &good.replace("\"tiles\":[0]", "\"tile\":0"),
            &good.replace("\"tiles\":[0]", "\"tiles\":[0],\"tile\":0"),
            &good.replace("\"tiles\":[0]", "\"tiles\":[0],\"extra\":1"),
        ] {
            assert_ne!(bad, good, "fixture lost its tiles field");
            assert!(parse_dispatch(bad).is_err(), "accepted: {bad}");
        }
        assert!(parse_dispatch(&good).is_ok());
    }
}
