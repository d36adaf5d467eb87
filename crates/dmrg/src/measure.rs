//! Observables on optimized states.

use crate::{Error, Result};
use tt_mps::{AutoMpo, Mps, SiteType};

/// `⟨Op_i⟩` for a named single-site operator.
pub fn site_expectation<S: SiteType>(
    mps: &Mps,
    site_type: &S,
    site: usize,
    op: &str,
) -> Result<f64> {
    let n = mps.n_sites();
    if site >= n {
        return Err(Error::Sweep(format!("site {site} out of range")));
    }
    let mut b = AutoMpo::new(site_type.clone(), n);
    b.add(1.0, &[(site, op)]);
    let mpo = b.build()?;
    Ok(mps.expectation(&mpo)?)
}

/// Two-point correlation `⟨Op_i Op_j⟩` of named operators.
pub fn correlation<S: SiteType>(
    mps: &Mps,
    site_type: &S,
    i: usize,
    op_i: &str,
    j: usize,
    op_j: &str,
) -> Result<f64> {
    let n = mps.n_sites();
    if i >= n || j >= n || i == j {
        return Err(Error::Sweep(
            "correlation needs distinct in-range sites".into(),
        ));
    }
    let mut b = AutoMpo::new(site_type.clone(), n);
    b.add(1.0, &[(i, op_i), (j, op_j)]);
    let mpo = b.build()?;
    Ok(mps.expectation(&mpo)?)
}

/// Static spin structure factor
/// `S(q) = (1/N) Σ_{ij} e^{i q·(r_i − r_j)} ⟨Sz_i Sz_j⟩`
/// on a lattice — the diagnostic the `J1−J2` literature uses to identify
/// magnetic order (Néel order peaks at `q = (π, π)`).
pub fn structure_factor<S: SiteType>(
    mps: &Mps,
    site_type: &S,
    lattice: &tt_mps::Lattice,
    op: &str,
    q: (f64, f64),
) -> Result<f64> {
    let n = lattice.n_sites();
    if mps.n_sites() != n {
        return Err(Error::Sweep("lattice/MPS size mismatch".into()));
    }
    // ⟨Op_i Op_j⟩ for all pairs (diagonal term uses Op_i²  = ⟨Op Op⟩ on site)
    let mut total = 0.0;
    for i in 0..n {
        let (xi, yi) = lattice.coords(i);
        for j in 0..n {
            let (xj, yj) = lattice.coords(j);
            let phase = q.0 * (xi as f64 - xj as f64) + q.1 * (yi as f64 - yj as f64);
            let cij = if i == j {
                // on-site ⟨Op²⟩ via a two-factor same-site term
                let mut b = AutoMpo::new(site_type.clone(), n);
                b.add(1.0, &[(i, op), (i, op)]);
                let mpo = b.build()?;
                mps.expectation(&mpo)?
            } else {
                correlation(mps, site_type, i, op, j, op)?
            };
            total += phase.cos() * cij;
        }
    }
    Ok(total / n as f64)
}

/// Sum of `⟨Op_i⟩` over all sites (e.g. total Sz or total N).
pub fn total_expectation<S: SiteType>(mps: &Mps, site_type: &S, op: &str) -> Result<f64> {
    let n = mps.n_sites();
    let mut b = AutoMpo::new(site_type.clone(), n);
    for i in 0..n {
        b.add(1.0, &[(i, op)]);
    }
    let mpo = b.build()?;
    Ok(mps.expectation(&mpo)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_mps::{Electron, SpinHalf};

    #[test]
    fn neel_magnetization() {
        let psi = Mps::product_state(&SpinHalf, &[0, 1, 0, 1]).unwrap();
        assert!((site_expectation(&psi, &SpinHalf, 0, "Sz").unwrap() - 0.5).abs() < 1e-12);
        assert!((site_expectation(&psi, &SpinHalf, 1, "Sz").unwrap() + 0.5).abs() < 1e-12);
        assert!(total_expectation(&psi, &SpinHalf, "Sz").unwrap().abs() < 1e-12);
    }

    #[test]
    fn neel_zz_correlation() {
        let psi = Mps::product_state(&SpinHalf, &[0, 1, 0, 1]).unwrap();
        let c = correlation(&psi, &SpinHalf, 0, "Sz", 1, "Sz").unwrap();
        assert!((c + 0.25).abs() < 1e-12);
        let c2 = correlation(&psi, &SpinHalf, 0, "Sz", 2, "Sz").unwrap();
        assert!((c2 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn electron_counts() {
        let psi = Mps::product_state(&Electron, &[1, 2, 3, 0]).unwrap();
        assert!((total_expectation(&psi, &Electron, "Nup").unwrap() - 2.0).abs() < 1e-12);
        assert!((total_expectation(&psi, &Electron, "Ndn").unwrap() - 2.0).abs() < 1e-12);
        assert!((site_expectation(&psi, &Electron, 2, "Nupdn").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bad_sites_rejected() {
        let psi = Mps::product_state(&SpinHalf, &[0, 1]).unwrap();
        assert!(site_expectation(&psi, &SpinHalf, 5, "Sz").is_err());
        assert!(correlation(&psi, &SpinHalf, 0, "Sz", 0, "Sz").is_err());
    }

    #[test]
    fn neel_structure_factor_peaks_at_pi_pi() {
        use tt_mps::Lattice;
        let lat = Lattice::square_cylinder(2, 2);
        // checkerboard: spin set by (x + y) parity (true 2-D Néel order)
        let states: Vec<usize> = (0..4)
            .map(|s| {
                let (x, y) = lat.coords(s);
                (x + y) % 2
            })
            .collect();
        let psi = Mps::product_state(&SpinHalf, &states).unwrap();
        let pi = std::f64::consts::PI;
        let s_pipi = structure_factor(&psi, &SpinHalf, &lat, "Sz", (pi, pi)).unwrap();
        let s_00 = structure_factor(&psi, &SpinHalf, &lat, "Sz", (0.0, 0.0)).unwrap();
        // perfect Néel order: S(π,π) = N·(1/4)/N · N = N/4 per site ⇒ 1.0
        // for N = 4; S(0,0) = 0 in the Sz = 0 sector
        assert!((s_pipi - 1.0).abs() < 1e-10, "S(pi,pi) = {s_pipi}");
        assert!(s_00.abs() < 1e-10, "S(0,0) = {s_00}");
    }

    #[test]
    fn structure_factor_size_mismatch() {
        use tt_mps::Lattice;
        let lat = Lattice::square_cylinder(2, 2);
        let psi = Mps::product_state(&SpinHalf, &[0, 1]).unwrap();
        assert!(structure_factor(&psi, &SpinHalf, &lat, "Sz", (0.0, 0.0)).is_err());
    }
}
