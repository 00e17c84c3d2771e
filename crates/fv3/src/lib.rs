//! The FV3 dynamical core, ported to the stencil DSL — plus the
//! FORTRAN-style baseline it validates against.

pub mod delnflux;
pub mod dyn_core;
pub mod grid;
pub mod c_sw;
pub mod d_sw;
pub mod fv_tp_2d;
pub mod health;
pub mod ppm;
pub mod profiling;
pub mod recorder;
pub mod remapping;
pub mod riem_solver_c;
pub mod init;
pub mod state;
