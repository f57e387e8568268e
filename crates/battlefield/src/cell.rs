//! Hex-cell state: the application node data structure.
//!
//! The Rust analogue of the thesis's `hex_node_data_struct` (Figure 2):
//! per-cell unit lists (`my_units`), per-direction fire and emigration
//! buffers (the `buffer[6][...]` temporaries), and destroyed-asset
//! counters (`destroyed[hex][red/blue][unit][direction]`, aggregated here
//! per side and direction).

use crate::unit::Unit;
use mpisim::{Wire, WireError};

/// Number of hex directions (E, W, NE, NW, SE, SW).
pub const DIRECTIONS: usize = 6;

/// Index of the "own cell" pseudo-direction in fire tables.
pub const DIR_SELF: usize = DIRECTIONS;

/// The two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Red force (advances east when out of contact).
    Red,
    /// Blue force (advances west when out of contact).
    Blue,
}

impl Side {
    /// The opposing side.
    pub fn enemy(self) -> Side {
        match self {
            Side::Red => Side::Blue,
            Side::Blue => Side::Red,
        }
    }

    /// Array index of this side.
    pub fn index(self) -> usize {
        match self {
            Side::Red => 0,
            Side::Blue => 1,
        }
    }

    /// Both sides, red first.
    pub const BOTH: [Side; 2] = [Side::Red, Side::Blue];
}

/// One hex of terrain with everything the node computation reads/writes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HexCell {
    /// Red units present, sorted by id.
    pub red: Vec<Unit>,
    /// Blue units present, sorted by id.
    pub blue: Vec<Unit>,
    /// Fire allocated by this cell's units: `fire[side][direction]` is the
    /// attack the given side pointed at the neighbouring cell in
    /// `direction` (index [`DIR_SELF`] = enemies sharing this cell).
    /// Written in the targeting phase, consumed in the fire phase.
    pub fire: [[u32; DIRECTIONS + 1]; 2],
    /// Units leaving this cell per direction: `emigrants[side][direction]`.
    /// Written in the fire phase, ingested by neighbours in the movement
    /// phase.
    pub emigrants: [[Vec<Unit>; DIRECTIONS]; 2],
    /// Cumulative units this cell has lost, per side — the destroyed-asset
    /// ledger.
    pub destroyed: [u32; 2],
}

impl HexCell {
    /// An empty hex.
    pub fn new() -> Self {
        HexCell::default()
    }

    /// Units of `side`.
    pub fn units(&self, side: Side) -> &[Unit] {
        match side {
            Side::Red => &self.red,
            Side::Blue => &self.blue,
        }
    }

    /// Mutable units of `side`.
    pub fn units_mut(&mut self, side: Side) -> &mut Vec<Unit> {
        match side {
            Side::Red => &mut self.red,
            Side::Blue => &mut self.blue,
        }
    }

    /// Total remaining strength of `side` in this cell.
    pub fn strength(&self, side: Side) -> u64 {
        self.units(side).iter().map(|u| u.strength as u64).sum()
    }

    /// Total attack rating of `side` in this cell.
    pub fn attack(&self, side: Side) -> u64 {
        self.units(side).iter().map(|u| u.attack as u64).sum()
    }

    /// Number of units of both sides (the per-cell load driver).
    pub fn unit_count(&self) -> usize {
        self.red.len() + self.blue.len()
    }

    /// Whether any units are present.
    pub fn occupied(&self) -> bool {
        self.unit_count() > 0
    }

    /// Keep unit lists sorted by id so parallel and sequential executions
    /// agree bit-for-bit.
    pub fn normalize(&mut self) {
        self.red.sort_unstable_by_key(|u| u.id);
        self.blue.sort_unstable_by_key(|u| u.id);
    }
}

fn encode_fire(fire: &[[u32; DIRECTIONS + 1]; 2], out: &mut Vec<u8>) {
    for side in fire {
        for &f in side {
            f.encode(out);
        }
    }
}

fn decode_fire(buf: &mut &[u8]) -> Result<[[u32; DIRECTIONS + 1]; 2], WireError> {
    let mut fire = [[0u32; DIRECTIONS + 1]; 2];
    for side in &mut fire {
        for f in side.iter_mut() {
            *f = u32::decode(buf)?;
        }
    }
    Ok(fire)
}

impl Wire for HexCell {
    fn encode(&self, out: &mut Vec<u8>) {
        self.red.encode(out);
        self.blue.encode(out);
        encode_fire(&self.fire, out);
        for side in &self.emigrants {
            for dir in side {
                dir.encode(out);
            }
        }
        self.destroyed[0].encode(out);
        self.destroyed[1].encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let red = Vec::<Unit>::decode(buf)?;
        let blue = Vec::<Unit>::decode(buf)?;
        let fire = decode_fire(buf)?;
        let mut emigrants: [[Vec<Unit>; DIRECTIONS]; 2] = Default::default();
        for side in &mut emigrants {
            for dir in side.iter_mut() {
                *dir = Vec::<Unit>::decode(buf)?;
            }
        }
        let destroyed = [u32::decode(buf)?, u32::decode(buf)?];
        Ok(HexCell {
            red,
            blue,
            fire,
            emigrants,
            destroyed,
        })
    }

    fn encoded_len(&self) -> usize {
        self.red.encoded_len()
            + self.blue.encoded_len()
            + self.fire.encoded_len()
            + self.emigrants.encoded_len()
            + self.destroyed.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HexCell {
        let mut c = HexCell::new();
        c.red.push(Unit::new(1, 100, 10));
        c.blue.push(Unit::new(2, 50, 5));
        c.blue.push(Unit::new(3, 60, 6));
        c.fire[0][2] = 17;
        c.fire[1][DIR_SELF] = 4;
        c.emigrants[1][3].push(Unit::new(9, 10, 1));
        c.destroyed = [2, 5];
        c
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        let c = sample();
        let bytes = c.to_bytes();
        assert_eq!(c.encoded_len(), bytes.len());
        let back = HexCell::from_bytes(&bytes).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn empty_cell_roundtrips() {
        let c = HexCell::new();
        assert_eq!(c.encoded_len(), c.to_bytes().len());
        assert_eq!(HexCell::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn strength_and_attack_sum_units() {
        let c = sample();
        assert_eq!(c.strength(Side::Red), 100);
        assert_eq!(c.strength(Side::Blue), 110);
        assert_eq!(c.attack(Side::Blue), 11);
        assert_eq!(c.unit_count(), 3);
        assert!(c.occupied());
    }

    #[test]
    fn normalize_sorts_by_id() {
        let mut c = HexCell::new();
        c.red.push(Unit::new(5, 1, 1));
        c.red.push(Unit::new(2, 1, 1));
        c.normalize();
        assert_eq!(c.red[0].id, 2);
    }

    #[test]
    fn side_enemy_and_index() {
        assert_eq!(Side::Red.enemy(), Side::Blue);
        assert_eq!(Side::Blue.enemy(), Side::Red);
        assert_eq!(Side::Red.index(), 0);
        assert_eq!(Side::Blue.index(), 1);
    }
}
