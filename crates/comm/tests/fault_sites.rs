//! The halo fault sites this crate names. The driver's rank team fires
//! them (`fv3core::parallel`); their effects are tested there, against
//! the team (`fv3core/tests/fault_sites.rs`, `resilience/tests`).

use comm::halo::{FAULT_SITES, SITE_HALO_CORRUPT, SITE_HALO_DROP, SITE_HALO_STALL};

#[test]
fn all_sites_enumerated() {
    assert_eq!(
        FAULT_SITES,
        [SITE_HALO_CORRUPT, SITE_HALO_DROP, SITE_HALO_STALL]
    );
}
