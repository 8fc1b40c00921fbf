//! An in-process copy of the server's serving path, built from public
//! calls: `ClientMsg::decode` → `Middleware::request` → `tile_payload`
//! → `ServerMsg::encode_into`. With a tracer it records one span per
//! stage under a `pipeline` root, plus an `engine.predict` child of the
//! middleware span taken from the response's own `predict_time`.

use crate::check::Expected;
use crate::trace::{Tracer, ROOT};
use fc_core::{Middleware, PairCacheStats};
use fc_server::protocol::unframe;
use fc_server::server::tile_payload;
use fc_server::{ClientMsg, FrameBuf, ServerMsg};
use fc_tiles::{Move, TileId};

/// What one request through the copy produced.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Whether the middleware cache answered.
    pub cache_hit: bool,
    /// Whether the reply passed the correctness check.
    pub ok: bool,
    /// Tiles prefetched after the reply.
    pub prefetched: usize,
    /// χ² pair-cache activity of the prediction.
    pub pair_cache: PairCacheStats,
    /// Encoded reply frame length, bytes.
    pub reply_bytes: usize,
}

fn open(tr: &mut Option<&mut Tracer>, name: &'static str, parent: u32, req: u64) -> u32 {
    tr.as_deref_mut()
        .map_or(ROOT, |t| t.open(name, parent, req))
}

fn close(tr: &mut Option<&mut Tracer>, id: u32) {
    if let Some(t) = tr.as_deref_mut() {
        t.close(id);
    }
}

/// The serving path of one session loop, with its reused reply frame.
#[derive(Default)]
pub struct Pipeline {
    frame: FrameBuf,
}

impl Pipeline {
    /// Serves one request through `mw`; `None` when the request could
    /// not be served at all.
    pub fn serve(
        &mut self,
        mw: &mut Middleware,
        tile: TileId,
        mv: Option<Move>,
        expected: &Expected,
        mut tr: Option<&mut Tracer>,
        req: u64,
    ) -> Option<Served> {
        // Client side: the request frame as the server reads it.
        let body = unframe(&ClientMsg::RequestTile { tile, mv }.encode());
        let root = open(&mut tr, "pipeline", ROOT, req);

        let span = open(&mut tr, "protocol.decode", root, req);
        let msg = ClientMsg::decode(body).ok();
        close(&mut tr, span);
        let Some(ClientMsg::RequestTile { tile: t, mv: m }) = msg else {
            close(&mut tr, root);
            return None;
        };

        let span = open(&mut tr, "middleware.request", root, req);
        let resp = mw.request(t, m);
        close(&mut tr, span);
        let Some(resp) = resp else {
            close(&mut tr, root);
            return None;
        };
        if let Some(t) = tr.as_deref_mut() {
            t.child_of("engine.predict", span, resp.predict_time);
        }

        let span = open(&mut tr, "protocol.payload", root, req);
        let payload = tile_payload(&resp.tile);
        close(&mut tr, span);

        let span = open(&mut tr, "protocol.encode", root, req);
        let reply = ServerMsg::Tile {
            payload,
            latency_ns: u64::try_from(resp.latency.as_nanos()).unwrap_or(u64::MAX),
            cache_hit: resp.cache_hit,
            phase: u8::try_from(resp.phase.index()).unwrap_or(u8::MAX),
            degraded: resp.degraded,
        };
        let reply_bytes = reply.encode_into(&mut self.frame).len();
        close(&mut tr, span);
        close(&mut tr, root);

        let ok = match &reply {
            ServerMsg::Tile {
                payload, degraded, ..
            } => !degraded && expected.matches(tile, payload),
            _ => false,
        };
        Some(Served {
            cache_hit: resp.cache_hit,
            ok,
            prefetched: resp.prefetched.len(),
            pair_cache: resp.pair_cache,
            reply_bytes,
        })
    }
}
