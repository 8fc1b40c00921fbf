//! The correctness check applied to every reply.
//!
//! A reply is correct when it names the requested tile, is not a
//! degraded (ancestor) reply, and carries exactly the payload
//! `tile_payload` builds from the tile's offline copy in the store.

use fc_server::server::tile_payload;
use fc_server::TilePayload;
use fc_tiles::{Pyramid, Tile, TileId};
use std::collections::HashMap;
use std::sync::Arc;

/// Expected tile and payload of every tile of one pyramid.
pub struct Expected {
    tiles: HashMap<TileId, (Arc<Tile>, TilePayload)>,
}

impl Expected {
    /// Builds the expected payloads from the store's offline path.
    pub fn for_pyramid(pyramid: &Pyramid) -> Self {
        let tiles = pyramid
            .geometry()
            .all_tiles()
            .filter_map(|id| {
                let tile = pyramid.store().fetch_offline(id)?;
                let payload = tile_payload(&tile);
                Some((id, (tile, payload)))
            })
            .collect();
        Self { tiles }
    }

    /// Whether `got` is the correct wire answer to a request for
    /// `requested`.
    pub fn matches(&self, requested: TileId, got: &TilePayload) -> bool {
        got.tile == requested
            && self
                .tiles
                .get(&requested)
                .is_some_and(|(_, want)| payload_eq(want, got))
    }

    /// Whether an in-process answer is correct: the very tile the store
    /// holds, or one whose payload equals it.
    pub fn tile_matches(&self, requested: TileId, got: &Arc<Tile>) -> bool {
        got.id == requested
            && self.tiles.get(&requested).is_some_and(|(want, payload)| {
                Arc::ptr_eq(want, got) || payload_eq(payload, &tile_payload(got))
            })
    }
}

/// Payload equality with the values compared bit for bit.
fn payload_eq(a: &TilePayload, b: &TilePayload) -> bool {
    a.tile == b.tile
        && a.h == b.h
        && a.w == b.w
        && a.attrs == b.attrs
        && a.present == b.present
        && a.data.len() == b.data.len()
        && a.data.iter().zip(&b.data).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}
