//! Policy factory used by the simulator, examples and benches.

use crate::bluefs::BlueFs;
use crate::fixed::{DiskOnly, WnicOnly};
use crate::flexfetch::{FlexFetch, FlexFetchConfig};
use crate::source::Policy;
use ff_profile::Profile;

/// A recipe for constructing one of the four simulated policies (§3.1).
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Everything from the disk.
    DiskOnly,
    /// Everything from the WNIC.
    WnicOnly,
    /// Reactive per-request selection with ghost hints.
    BlueFs,
    /// FlexFetch with a recorded profile and explicit config.
    FlexFetch {
        /// The recorded prior-run profile.
        profile: Profile,
        /// Policy tuning.
        config: FlexFetchConfig,
    },
}

impl PolicyKind {
    /// Adaptive FlexFetch with the paper's defaults (25 % loss rate;
    /// stages follow the engine's `stage_len`).
    pub fn flexfetch(profile: Profile) -> Self {
        PolicyKind::FlexFetch {
            profile,
            config: FlexFetchConfig::default(),
        }
    }

    /// FlexFetch-static (§3.3.4): profile-driven, no run-time adaptation.
    pub fn flexfetch_static(profile: Profile) -> Self {
        PolicyKind::FlexFetch {
            profile,
            config: FlexFetchConfig {
                adaptive: false,
                ..Default::default()
            },
        }
    }

    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn Policy> {
        match self {
            PolicyKind::DiskOnly => Box::new(DiskOnly),
            PolicyKind::WnicOnly => Box::new(WnicOnly),
            PolicyKind::BlueFs => Box::new(BlueFs::new()),
            PolicyKind::FlexFetch { profile, config } => {
                Box::new(FlexFetch::new(profile.clone(), config.clone()))
            }
        }
    }

    /// The scheme's display name (figure legend).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::DiskOnly => "Disk-only",
            PolicyKind::WnicOnly => "WNIC-only",
            PolicyKind::BlueFs => "BlueFS",
            PolicyKind::FlexFetch { config, .. } => {
                if config.adaptive {
                    "FlexFetch"
                } else {
                    "FlexFetch-static"
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_built_policies() {
        let kinds = [
            PolicyKind::DiskOnly,
            PolicyKind::WnicOnly,
            PolicyKind::BlueFs,
            PolicyKind::flexfetch(Profile::empty("x")),
            PolicyKind::flexfetch_static(Profile::empty("x")),
        ];
        for k in kinds {
            assert_eq!(k.label(), k.build().name());
        }
    }

    #[test]
    fn flexfetch_kind_carries_config() {
        let k = PolicyKind::flexfetch_static(Profile::empty("x"));
        match &k {
            PolicyKind::FlexFetch { config, .. } => assert!(!config.adaptive),
            _ => panic!("wrong variant"),
        }
    }
}
