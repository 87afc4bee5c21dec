//! The coordinator ↔ worker wire schema.
//!
//! Four endpoints, all over the same HTTP/1.1 subset `cardopc-serve`
//! speaks (`Content-Length` framing; workers additionally honour
//! `Connection: keep-alive`, so a dispatch lane reuses one stream for
//! every request it sends):
//!
//! | Method & path          | Purpose                                         |
//! |------------------------|-------------------------------------------------|
//! | `POST /v1/tiles`       | correct one tile; 200 body = its entry line     |
//! | `GET /v1/records`      | the worker's cached entry lines (JSONL)         |
//! | `GET /healthz`         | heartbeat (liveness + tiles-answered counter)   |
//! | `POST /admin/shutdown` | stop accepting and let the process exit 0       |
//!
//! A dispatch body is `{"spec": <work spec>, "tile": <index>}` — the
//! [`WorkSpec`] is self-contained, so a worker needs no session state and
//! any worker can serve any tile of any job; there is no other request
//! form. The coordinator sends the head of a class of congruent tiles (see
//! [`crate::coord`]): the worker corrects (or replays) it and answers its
//! entry line, `\n`-terminated — the pattern's window-relative correction
//! under its cache key, the line `cache.jsonl` and `tiles.jsonl` hold. The
//! coordinator places it on every tile of the class and builds their tile
//! lines from its own partition, so nothing positional crosses the wire.
//! A tile that fails is a 500 with `{"error": …, "tile": <index>}`.

use crate::spec::{reject_unknown, BadRequest, WorkSpec};
use cardopc_json::Json;

/// Serialises a dispatch request for tile `tile`.
pub fn dispatch_body(spec: &WorkSpec, tile: usize) -> String {
    Json::obj(vec![
        ("spec", spec.to_json()),
        ("tile", Json::num_usize(tile)),
    ])
    .to_string_compact()
}

/// Parses a `POST /v1/tiles` body.
///
/// # Errors
///
/// A message for malformed JSON, unknown fields, an invalid spec, or a
/// tile that is not a non-negative integer; workers answer 400 with it.
pub fn parse_dispatch(body: &str) -> Result<(WorkSpec, usize), BadRequest> {
    let json = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(_) = &json else {
        return Err("dispatch body must be a JSON object".into());
    };
    reject_unknown(&json, &["spec", "tile"])?;
    let spec = WorkSpec::from_json(json.get("spec").ok_or("missing 'spec'")?)?;
    let tile = json
        .get("tile")
        .and_then(Json::as_usize)
        .ok_or("'tile' must be a non-negative integer tile index")?;
    Ok((spec, tile))
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
        for tile in [0, 3, 4095] {
            let body = dispatch_body(&spec(), tile);
            assert_eq!(parse_dispatch(&body).unwrap(), (spec(), tile));
        }
    }

    #[test]
    fn dispatch_rejections() {
        let good = dispatch_body(&spec(), 0);
        let with_tile = |tile: &str| good.replace("\"tile\":0", &format!("\"tile\":{tile}"));
        for bad in [
            "not json",
            "[]",
            r#"{"tile": 0}"#,
            r#"{"spec": {}, "tile": 0}"#,
            &with_tile("-1"),
            &with_tile("1.5"),
            &with_tile("\"0\""),
            &with_tile("[0]"),
            &with_tile("{\"0\":0}"),
            &with_tile("null"),
            // The batch request form is just an unknown key now.
            &good.replace("\"tile\":0", "\"tiles\":[0]"),
            &good.replace("\"tile\":0", "\"tile\":0,\"tiles\":[0]"),
            &good.replace("\"tile\":0", "\"tile\":0,\"extra\":1"),
        ] {
            assert_ne!(bad, good, "fixture lost its tile field");
            assert!(parse_dispatch(bad).is_err(), "accepted: {bad}");
        }
        assert!(parse_dispatch(&good).is_ok());
    }
}
