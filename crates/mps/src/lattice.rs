//! Lattice geometries: the paper's 2-D cylinders mapped to a 1-D chain.
//!
//! The spin benchmark runs on a 20×10 square-lattice cylinder with J1
//! (nearest-neighbour) and J2 (diagonal next-nearest-neighbour) couplings
//! (Fig. 4a); the electron benchmark runs on a 6×6 triangular cylinder in
//! the XC orientation (Fig. 4b). Sites are ordered column-major
//! (`index = x·W + y`), periodic around the cylinder (y) and open along it
//! (x) — the ordering that makes a DMRG "column" the 10-site unit timed in
//! Fig. 6.

/// Classification of a two-site coupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BondKind {
    /// Nearest neighbour (J1 / hopping t).
    Nearest,
    /// Next-nearest (diagonal) neighbour (J2).
    NextNearest,
}

/// A finite cylinder lattice with its 1-D site ordering and bond list.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Length along the open direction (number of columns).
    pub lx: usize,
    /// Circumference (column height, periodic).
    pub ly: usize,
    /// Bonds as `(site_a, site_b, kind)` with `site_a < site_b`.
    pub bonds: Vec<(usize, usize, BondKind)>,
    /// Human-readable name.
    pub name: String,
}

impl Lattice {
    /// Total number of sites.
    pub fn n_sites(&self) -> usize {
        self.lx * self.ly
    }

    /// Column-major site index of `(x, y)`.
    pub fn site(&self, x: usize, y: usize) -> usize {
        x * self.ly + y
    }

    /// Inverse of [`Lattice::site`].
    pub fn coords(&self, s: usize) -> (usize, usize) {
        (s / self.ly, s % self.ly)
    }

    /// Column index of a site (the 10-site groups of Fig. 6).
    pub fn column(&self, s: usize) -> usize {
        s / self.ly
    }

    /// Bonds of a given kind.
    pub fn bonds_of(&self, kind: BondKind) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bonds
            .iter()
            .filter(move |&&(_, _, k)| k == kind)
            .map(|&(a, b, _)| (a, b))
    }

    /// Largest 1-D distance any bond spans (bounds the MPO's interaction
    /// range; grows with the cylinder width).
    pub fn max_bond_range(&self) -> usize {
        self.bonds.iter().map(|&(a, b, _)| b - a).max().unwrap_or(0)
    }

    fn push_bond(bonds: &mut Vec<(usize, usize, BondKind)>, a: usize, b: usize, k: BondKind) {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if a != b && !bonds.contains(&(a, b, k)) {
            bonds.push((a, b, k));
        }
    }

    /// Square-lattice cylinder (`lx × ly`, periodic in y) with J1 bonds to
    /// horizontal/vertical neighbours and J2 bonds to the diagonals —
    /// the paper's `J1−J2` geometry (Fig. 4a).
    pub fn square_cylinder(lx: usize, ly: usize) -> Lattice {
        assert!(lx >= 1 && ly >= 2);
        let mut bonds = Vec::new();
        let site = |x: usize, y: usize| x * ly + y;
        for x in 0..lx {
            for y in 0..ly {
                let s = site(x, y);
                // vertical (periodic), skip double-count for ly == 2
                let yn = (y + 1) % ly;
                if yn != y && !(ly == 2 && y == 1) {
                    Self::push_bond(&mut bonds, s, site(x, yn), BondKind::Nearest);
                }
                if x + 1 < lx {
                    // horizontal
                    Self::push_bond(&mut bonds, s, site(x + 1, y), BondKind::Nearest);
                    // diagonals (next-nearest)
                    let yu = (y + 1) % ly;
                    let yd = (y + ly - 1) % ly;
                    if yu != y {
                        Self::push_bond(&mut bonds, s, site(x + 1, yu), BondKind::NextNearest);
                    }
                    if yd != y && yd != yu {
                        Self::push_bond(&mut bonds, s, site(x + 1, yd), BondKind::NextNearest);
                    }
                }
            }
        }
        Lattice {
            lx,
            ly,
            bonds,
            name: format!("square-cylinder {lx}x{ly}"),
        }
    }

    /// Triangular-lattice cylinder in the XC orientation (`lx × ly`,
    /// periodic in y): square-lattice bonds plus one set of diagonals, all
    /// nearest-neighbour — the paper's triangular Hubbard geometry
    /// (Fig. 4b).
    pub fn triangular_cylinder_xc(lx: usize, ly: usize) -> Lattice {
        assert!(lx >= 1 && ly >= 2);
        let mut bonds = Vec::new();
        let site = |x: usize, y: usize| x * ly + y;
        for x in 0..lx {
            for y in 0..ly {
                let s = site(x, y);
                let yn = (y + 1) % ly;
                if yn != y && !(ly == 2 && y == 1) {
                    Self::push_bond(&mut bonds, s, site(x, yn), BondKind::Nearest);
                }
                if x + 1 < lx {
                    Self::push_bond(&mut bonds, s, site(x + 1, y), BondKind::Nearest);
                    // one diagonal family makes the lattice triangular
                    if yn != y {
                        Self::push_bond(&mut bonds, s, site(x + 1, yn), BondKind::Nearest);
                    }
                }
            }
        }
        Lattice {
            lx,
            ly,
            bonds,
            name: format!("triangular-cylinder-XC {lx}x{ly}"),
        }
    }

    /// Open 1-D chain (the quickstart geometry): nearest-neighbour bonds
    /// `(i, i+1)` and next-nearest bonds `(i, i+2)`, so a `J1−J2` model on
    /// it is the frustrated chain.
    pub fn chain(n: usize) -> Lattice {
        assert!(n >= 2);
        let nearest = (0..n - 1).map(|i| (i, i + 1, BondKind::Nearest));
        let next_nearest = (0..n - 2).map(|i| (i, i + 2, BondKind::NextNearest));
        let bonds = nearest.chain(next_nearest).collect();
        Lattice {
            lx: n,
            ly: 1,
            bonds,
            name: format!("chain {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_bonds() {
        let c = Lattice::chain(5);
        assert_eq!(c.n_sites(), 5);
        assert_eq!(c.bonds.len(), 2 * 5 - 3);
        assert_eq!(c.bonds_of(BondKind::Nearest).count(), 4);
        assert!(c.bonds_of(BondKind::NextNearest).all(|(a, b)| b == a + 2));
        assert_eq!(c.max_bond_range(), 2);
        // the two-site chain has no next-nearest pair
        assert_eq!(Lattice::chain(2).bonds, vec![(0, 1, BondKind::Nearest)]);
    }

    #[test]
    fn square_cylinder_coordination() {
        // 4x4 cylinder: each site has 4 NN bonds (periodic y, open x edges
        // have 3); total NN bonds = lx*ly (vertical) + (lx-1)*ly (horizontal)
        let l = Lattice::square_cylinder(4, 4);
        let nn = l.bonds_of(BondKind::Nearest).count();
        assert_eq!(nn, 4 * 4 + 3 * 4);
        // NNN: 2 diagonals per horizontal plaquette column
        let nnn = l.bonds_of(BondKind::NextNearest).count();
        assert_eq!(nnn, 3 * 4 * 2);
        // no duplicate bonds
        let mut sorted = l.bonds.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), l.bonds.len());
    }

    #[test]
    fn width2_no_double_bonds() {
        let l = Lattice::square_cylinder(3, 2);
        // vertical bonds: one per column (not two)
        let vertical: Vec<_> = l
            .bonds_of(BondKind::Nearest)
            .filter(|&(a, b)| b == a + 1 && a % 2 == 0)
            .collect();
        assert_eq!(vertical.len(), 3);
    }

    #[test]
    fn site_ordering_column_major() {
        let l = Lattice::square_cylinder(3, 4);
        assert_eq!(l.site(0, 0), 0);
        assert_eq!(l.site(0, 3), 3);
        assert_eq!(l.site(1, 0), 4);
        assert_eq!(l.coords(7), (1, 3));
        assert_eq!(l.column(7), 1);
        // NN bond range bounded by width+... (cyclic wrap gives ly-1; the
        // horizontal bond spans exactly ly)
        assert_eq!(l.max_bond_range(), 4 + 3); // diagonal (x,y)->(x+1,y-1) furthest
    }

    #[test]
    fn triangular_has_extra_diagonals() {
        let sq = Lattice::square_cylinder(4, 4);
        let tr = Lattice::triangular_cylinder_xc(4, 4);
        let sq_nn = sq.bonds_of(BondKind::Nearest).count();
        let tr_nn = tr.bonds_of(BondKind::Nearest).count();
        assert_eq!(tr_nn, sq_nn + 3 * 4); // one diagonal per horizontal pair
        assert_eq!(tr.bonds_of(BondKind::NextNearest).count(), 0);
    }

    #[test]
    fn paper_geometries_instantiable() {
        let spins = Lattice::square_cylinder(20, 10);
        assert_eq!(spins.n_sites(), 200);
        let electrons = Lattice::triangular_cylinder_xc(6, 6);
        assert_eq!(electrons.n_sites(), 36);
    }
}
