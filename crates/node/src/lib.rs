//! # btc-node
//!
//! A from-scratch Bitcoin protocol node built on [`btc_netsim`]: version
//! handshake, full message processing for all 26 P2P message types, chain
//! state with PoW/merkle validation, a mempool, and —
//! the subject of the reproduced paper — the **ban-score misbehavior
//! tracking mechanism** with the exact rule sets of Bitcoin Core 0.20.0,
//! 0.21.0 and 0.22.0 (Table I).
//!
//! The receive path copies Bitcoin Core's ordering (frame → checksum →
//! decode → handler → `Misbehaving()`), which is precisely what the
//! paper's BM-DoS vectors exploit.
//!
//! ```
//! use btc_node::banscore::{CoreVersion, Misbehavior};
//!
//! // PING carries no ban rule in any version: the classic BM-DoS message.
//! assert!(btc_node::banscore::unprotected_message_types(CoreVersion::V0_20)
//!     .contains(&"ping"));
//! // A mutated block costs 100 points in every version.
//! assert_eq!(Misbehavior::BlockMutated.penalty(CoreVersion::V0_22), Some(100));
//! ```

#![warn(missing_docs)]

pub mod addrman;
pub mod banman;
pub mod banscore;
pub mod chain;
pub mod cost;
pub mod mempool;
pub mod metrics;
pub mod node;
pub mod peer;

pub use addrman::AddrMan;
pub use banman::BanMan;
pub use banscore::{
    BanPolicy, CoreVersion, Misbehavior, MisbehaviorTracker, ReputationConfig, ReputationEngine,
    Tier,
};
pub use chain::Chain;
pub use mempool::Mempool;
pub use node::{Node, NodeConfig, PeerPolicy};
pub use peer::Peer;
