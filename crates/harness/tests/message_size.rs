//! A size budget for each stack's message enum.
//!
//! Every message is moved at the size of its enum's largest variant: built,
//! buffered as an effect, queued, popped and dispatched. One rare variant
//! that carries a whole log inline makes every common message pay for it on
//! every hop, so each enum is held to 128 bytes on 64-bit targets.
//!
//! `cargo test -p ratc-harness --test message_size -- --nocapture` prints the
//! sizes.

use std::mem::size_of;

use ratc_baseline::BaselineMsg;
use ratc_core::Msg;
use ratc_rdma::RdmaMsg;

/// Bytes a message enum may take on a 64-bit target.
const BUDGET: usize = 128;

#[test]
#[cfg(target_pointer_width = "64")]
fn every_message_enum_fits_its_size_budget() {
    let sizes = [
        ("Msg", size_of::<Msg>()),
        ("RdmaMsg", size_of::<RdmaMsg>()),
        ("BaselineMsg", size_of::<BaselineMsg>()),
    ];
    for (name, size) in sizes {
        println!("{name:>11}  {size:4} bytes");
    }
    for (name, size) in sizes {
        assert!(
            size <= BUDGET,
            "{name} is {size} bytes, over the {BUDGET}-byte budget: \
             box the variant that carries a log or a configuration"
        );
    }
}
