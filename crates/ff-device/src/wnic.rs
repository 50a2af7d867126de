//! The wireless-NIC power model (Cisco Aironet 350, Table 2).
//!
//! State machine:
//!
//! ```text
//!            timeout (800 ms idle)         switch (0.41 s, 0.53 J)
//!   CAM ───────────────────────────► ToPsm ────────────────────► PSM
//!    ▲                                                            │
//!    │   wake on traffic > 1 packet (0.40 s, 0.51 J)              │
//!    └────────────────────────◄── ToCam ◄─────────────────────────┘
//! ```
//!
//! §3.1: the card *"switches to the PSM mode from the CAM mode when WNIC
//! has been idle for more than 800 msec, and it switches back to the CAM
//! mode if more than one packet is ready on the access point."* We model
//! that adaptive policy literally: a request that fits in a single MTU
//! packet can be drained during a PSM beacon wake-up (paying half a
//! beacon interval of extra latency on average); anything larger forces
//! the PSM→CAM switch.
//!
//! Transfers draw the direction-specific receive/send power; the
//! round-trip latency to the remote server (a sweep axis in §3.3) dwells
//! at the mode's idle power.
//!
//! The state machine above is checked by running it: the
//! `machine_walk_follows_the_paper_cycle` test drives it from both
//! constructors through every state and round the cycle, and in debug
//! builds `advance_to` fails, naming the state, if a broken edge stops
//! the clock. Every transition is visible at run time as a
//! `device_transition` observability event (DESIGN.md §10).

use crate::consts;
use crate::meter::Meter;
use crate::model::{DeviceRequest, Dir, PowerModel, ServiceOutcome};
use ff_base::{BytesPerSec, Dur, Joules, SimTime, Watts};

/// WNIC power/performance constants. Defaults are Table 2 plus the §3.1
/// prose (800 ms PSM timeout, 11 Mbps) and a 1 ms base latency (the
/// fixed-latency point of the bandwidth sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WnicParams {
    /// PSM idle power (Table 2: 0.39 W).
    pub psm_idle: Watts,
    /// PSM receive power (Table 2: 1.42 W).
    pub psm_recv: Watts,
    /// PSM send power (Table 2: 2.48 W).
    pub psm_send: Watts,
    /// CAM idle power (Table 2: 1.41 W).
    pub cam_idle: Watts,
    /// CAM receive power (Table 2: 2.61 W).
    pub cam_recv: Watts,
    /// CAM send power (Table 2: 3.69 W).
    pub cam_send: Watts,
    /// CAM→PSM switch (Table 2: 0.41 s, 0.53 J).
    pub to_psm_time: Dur,
    /// Energy of the CAM→PSM switch.
    pub to_psm_energy: Joules,
    /// PSM→CAM switch (Table 2: 0.40 s, 0.51 J).
    pub to_cam_time: Dur,
    /// Energy of the PSM→CAM switch.
    pub to_cam_energy: Joules,
    /// CAM idle time before switching to PSM (§3.1: 800 ms).
    pub psm_timeout: Dur,
    /// Link bandwidth (802.11b: 1, 2, 5.5 or 11 Mbps).
    pub bandwidth: BytesPerSec,
    /// Round-trip latency to the remote storage server per request.
    pub latency: Dur,
    /// Largest request drainable during a PSM beacon wake-up without
    /// switching to CAM ("more than one packet ready" forces CAM).
    pub psm_packet_bytes: u64,
    /// 802.11 beacon interval; a PSM-serviced request waits half of it
    /// on average.
    pub beacon_interval: Dur,
}

impl WnicParams {
    /// The paper's card at 11 Mbps with 1 ms server latency. Every value
    /// comes from [`crate::consts`], the single source of truth for the
    /// Table 2 calibration numbers.
    pub fn cisco_aironet350() -> Self {
        WnicParams {
            psm_idle: Watts(consts::WNIC_PSM_IDLE_W),
            psm_recv: Watts(consts::WNIC_PSM_RECV_W),
            psm_send: Watts(consts::WNIC_PSM_SEND_W),
            cam_idle: Watts(consts::WNIC_CAM_IDLE_W),
            cam_recv: Watts(consts::WNIC_CAM_RECV_W),
            cam_send: Watts(consts::WNIC_CAM_SEND_W),
            to_psm_time: Dur::from_millis(consts::WNIC_TO_PSM_TIME_MS),
            to_psm_energy: Joules(consts::WNIC_TO_PSM_ENERGY_J),
            to_cam_time: Dur::from_millis(consts::WNIC_TO_CAM_TIME_MS),
            to_cam_energy: Joules(consts::WNIC_TO_CAM_ENERGY_J),
            psm_timeout: Dur::from_millis(consts::WNIC_PSM_TIMEOUT_MS),
            bandwidth: BytesPerSec::from_mbit_per_sec(consts::WNIC_BANDWIDTH_MBPS),
            latency: Dur::from_millis(consts::WNIC_LATENCY_MS),
            psm_packet_bytes: consts::WNIC_PSM_PACKET_BYTES,
            beacon_interval: Dur::from_millis(consts::WNIC_BEACON_INTERVAL_MS),
        }
    }
}

impl Default for WnicParams {
    fn default() -> Self {
        WnicParams::cisco_aironet350()
    }
}

/// Observable WNIC state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WnicState {
    /// Continuously-aware mode: radio on, ready.
    Cam,
    /// Switching CAM→PSM; completes at the given instant.
    ToPsm(SimTime),
    /// Power-saving mode: radio mostly off, wakes at beacons.
    Psm,
    /// Switching PSM→CAM; completes at the given instant.
    ToCam(SimTime),
}

/// The WNIC's power-state machine.
#[derive(Debug, Clone, Copy)]
pub struct WnicModel {
    params: WnicParams,
    state: WnicState,
    clock: SimTime,
    /// Start of the current CAM idle stretch (valid in `Cam`).
    idle_since: SimTime,
}

impl WnicModel {
    /// New card in PSM at t = 0 (a quiescent card has long since dropped
    /// to power-saving mode).
    pub fn new(params: WnicParams) -> Self {
        WnicModel {
            params,
            state: WnicState::Psm,
            clock: SimTime::ZERO,
            idle_since: SimTime::ZERO,
        }
    }

    /// New card in CAM (for estimator what-if runs).
    pub fn new_cam(params: WnicParams) -> Self {
        WnicModel {
            state: WnicState::Cam,
            ..WnicModel::new(params)
        }
    }

    /// The configured constants.
    pub fn params(&self) -> &WnicParams {
        &self.params
    }

    /// Current state.
    pub fn state(&self) -> WnicState {
        self.state
    }

    /// Change the link bandwidth mid-run (reception quality shifted —
    /// §2.3's "wireless network bandwidth changes due to factors such as
    /// change of device location"). Affects subsequent transfers only.
    pub fn set_bandwidth(&mut self, bandwidth: BytesPerSec) {
        self.params.bandwidth = bandwidth;
    }

    fn transfer_power(&self, dir: Dir, cam: bool) -> Watts {
        match (dir, cam) {
            (Dir::Read, true) => self.params.cam_recv,
            (Dir::Write, true) => self.params.cam_send,
            (Dir::Read, false) => self.params.psm_recv,
            (Dir::Write, false) => self.params.psm_send,
        }
    }
}

impl PowerModel for WnicModel {
    fn advance_to(&mut self, now: SimTime, meter: &mut impl Meter) {
        // A step that leaves the clock where it is must change the state,
        // and a working machine takes fewer such steps in a row than it
        // has states. Past that, a broken edge is looping without moving
        // the clock: fail naming the state instead of hanging. Debug
        // builds only; release code carries no guard.
        #[cfg(debug_assertions)]
        let mut stalled = 0u8;
        while self.clock < now {
            let at = self.clock;
            match self.state {
                WnicState::Cam => {
                    let deadline = self.idle_since + self.params.psm_timeout;
                    if now < deadline {
                        meter.dwell(at, "cam_idle", self.params.cam_idle, now - at);
                        self.clock = now;
                    } else {
                        if at < deadline {
                            meter.dwell(at, "cam_idle", self.params.cam_idle, deadline - at);
                            self.clock = deadline;
                        }
                        meter.transition(self.clock, "cam_to_psm", self.params.to_psm_energy);
                        self.state = WnicState::ToPsm(deadline + self.params.to_psm_time);
                    }
                }
                WnicState::ToPsm(until) => {
                    let end = until.min(now);
                    meter.dwell(at, "switching", Watts::ZERO, end - at);
                    self.clock = end;
                    if end == until {
                        self.state = WnicState::Psm;
                    }
                }
                WnicState::Psm => {
                    meter.dwell(at, "psm_idle", self.params.psm_idle, now - at);
                    self.clock = now;
                }
                WnicState::ToCam(until) => {
                    let end = until.min(now);
                    meter.dwell(at, "switching", Watts::ZERO, end - at);
                    self.clock = end;
                    if end == until {
                        self.state = WnicState::Cam;
                        self.idle_since = until;
                    }
                }
            }
            #[cfg(debug_assertions)]
            {
                stalled = if self.clock == at { stalled + 1 } else { 0 };
                debug_assert!(stalled < 4, "WNIC stuck in {:?} at {at}", self.state);
            }
        }
    }

    // Inlined so that a what-if walk, which reads only `complete`, lets
    // the compiler drop the request-energy arithmetic it never uses.
    #[inline]
    fn service(
        &mut self,
        now: SimTime,
        req: &DeviceRequest,
        meter: &mut impl Meter,
    ) -> ServiceOutcome {
        let arrival = now.max(self.clock);
        self.advance_to(arrival, meter);

        let mut request_energy = Joules::ZERO;

        // Ride out an in-flight switch either way.
        if let WnicState::ToPsm(until) = self.state {
            self.advance_to(until, meter);
        }
        if let WnicState::ToCam(until) = self.state {
            self.advance_to(until, meter);
        }

        let psm_servable =
            self.state == WnicState::Psm && req.bytes.get() <= self.params.psm_packet_bytes;

        if psm_servable {
            // Drain the single packet at the next beacon: half a beacon
            // interval of PSM-idle wait on average, then latency and
            // transfer at PSM transfer power.
            let wait = self.params.beacon_interval / 2;
            meter.dwell(self.clock, "psm_idle", self.params.psm_idle, wait);
            request_energy += self.params.psm_idle * wait;
            self.clock += wait;

            let latency = self.params.latency;
            meter.dwell(self.clock, "psm_idle", self.params.psm_idle, latency);
            request_energy += self.params.psm_idle * latency;
            self.clock += latency;

            let transfer = self.params.bandwidth.transfer_time(req.bytes);
            let p = self.transfer_power(req.dir, false);
            meter.dwell(self.clock, "psm_transfer", p, transfer);
            request_energy += p * transfer;
            self.clock += transfer;
            // Remains in PSM.
        } else {
            // A zero-length switch ends here, since `advance_to` takes
            // no step that does not move the clock.
            if self.state == WnicState::Psm {
                meter.transition(self.clock, "psm_to_cam", self.params.to_cam_energy);
                request_energy += self.params.to_cam_energy;
                let until = self.clock + self.params.to_cam_time;
                self.state = if until == self.clock {
                    WnicState::Cam
                } else {
                    WnicState::ToCam(until)
                };
                self.advance_to(until, meter);
            }
            debug_assert_eq!(self.state, WnicState::Cam);

            // Round-trip to the server at CAM idle power.
            let latency = self.params.latency;
            meter.dwell(self.clock, "cam_idle", self.params.cam_idle, latency);
            request_energy += self.params.cam_idle * latency;
            self.clock += latency;

            let transfer = self.params.bandwidth.transfer_time(req.bytes);
            let p = self.transfer_power(req.dir, true);
            meter.dwell(self.clock, "cam_transfer", p, transfer);
            request_energy += p * transfer;
            self.clock += transfer;
            self.idle_since = self.clock;
        }

        ServiceOutcome {
            complete: self.clock,
            service_time: self.clock.saturating_since(now),
            energy: request_energy,
        }
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn is_ready(&self) -> bool {
        matches!(self.state, WnicState::Cam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::walk::PathMeter;
    use crate::model::Live;
    use ff_base::Bytes;
    use std::collections::BTreeSet;

    fn wnic() -> Live<WnicModel> {
        Live::new(WnicModel::new(WnicParams::cisco_aironet350()))
    }

    fn wnic_cam(params: WnicParams) -> Live<WnicModel> {
        Live::new(WnicModel::new_cam(params))
    }

    const EPS: f64 = 1e-6;

    #[test]
    fn table2_constants() {
        let p = WnicParams::cisco_aironet350();
        assert_eq!(p.psm_idle, Watts(0.39));
        assert_eq!(p.psm_recv, Watts(1.42));
        assert_eq!(p.psm_send, Watts(2.48));
        assert_eq!(p.cam_idle, Watts(1.41));
        assert_eq!(p.cam_recv, Watts(2.61));
        assert_eq!(p.cam_send, Watts(3.69));
        assert_eq!(p.to_psm_time, Dur::from_millis(410));
        assert_eq!(p.to_psm_energy, Joules(0.53));
        assert_eq!(p.to_cam_time, Dur::from_millis(400));
        assert_eq!(p.to_cam_energy, Joules(0.51));
        assert_eq!(p.psm_timeout, Dur::from_millis(800));
    }

    #[test]
    fn psm_idle_energy_integrates() {
        let mut w = wnic();
        w.advance_to(SimTime::from_secs(100));
        assert!((w.meter.total().get() - 39.0).abs() < EPS); // 0.39 W × 100 s
        assert_eq!(w.model.state(), WnicState::Psm);
    }

    #[test]
    fn cam_times_out_to_psm() {
        let mut w = wnic_cam(WnicParams::cisco_aironet350());
        w.advance_to(SimTime::from_secs(10));
        assert_eq!(w.model.state(), WnicState::Psm);
        // 0.8 s CAM idle + switch 0.53 J + (10 − 0.8 − 0.41) s PSM.
        let expect = 1.41 * 0.8 + 0.53 + 0.39 * (10.0 - 0.8 - 0.41);
        assert!(
            (w.meter.total().get() - expect).abs() < EPS,
            "{}",
            w.meter.total()
        );
        assert_eq!(w.meter.transition_count("cam_to_psm"), 1);
    }

    #[test]
    fn large_request_from_psm_pays_wakeup() {
        let mut w = wnic();
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        // 0.4 s switch + 1 ms latency + 64 KiB at 11 Mbps (~47.7 ms).
        assert!(out.service_time >= Dur::from_millis(440));
        assert!(
            out.service_time < Dur::from_millis(460),
            "{}",
            out.service_time
        );
        assert!(out.energy.get() > 0.51);
        assert_eq!(w.model.state(), WnicState::Cam);
        assert_eq!(w.meter.transition_count("psm_to_cam"), 1);
    }

    #[test]
    fn a_zero_switch_wakes_the_card_in_service() {
        let p = WnicParams {
            to_cam_time: Dur::ZERO,
            ..WnicParams::cisco_aironet350()
        };
        let mut w = Live::new(WnicModel::new(p));
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        assert_eq!(w.model.state(), WnicState::Cam);
        assert_eq!(w.meter.transition_count("psm_to_cam"), 1);
        // The CAM idle timer runs from the end of the 48.7 ms transfer:
        // the switch back to PSM is due at about 1.26 s, not 1.21 s.
        w.advance_to(SimTime::from_secs(1));
        let due = out.complete + p.psm_timeout + p.to_psm_time;
        assert_eq!(w.model.state(), WnicState::ToPsm(due));
        assert!((due.as_secs_f64() - 1.2587).abs() < 1e-3, "{due}");
    }

    #[test]
    fn single_packet_served_in_psm() {
        let mut w = wnic();
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes(1200), None));
        assert_eq!(
            w.model.state(),
            WnicState::Psm,
            "stays in PSM for one packet"
        );
        assert_eq!(w.meter.transition_count("psm_to_cam"), 0);
        // Waits up to half a beacon (50 ms) + latency + ~0.9 ms transfer.
        assert!(out.service_time >= Dur::from_millis(50));
        assert!(out.service_time < Dur::from_millis(60));
    }

    #[test]
    fn back_to_back_requests_stay_in_cam() {
        let mut w = wnic();
        let a = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        let b = w.service(
            a.complete + Dur::from_millis(100),
            &DeviceRequest::read(Bytes::kib(64), None),
        );
        assert_eq!(
            w.meter.transition_count("psm_to_cam"),
            1,
            "only the first pays"
        );
        assert!(b.service_time < Dur::from_millis(60));
    }

    #[test]
    fn sparse_requests_thrash_modes() {
        let mut w = wnic();
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            let out = w.service(t, &DeviceRequest::read(Bytes::kib(64), None));
            t = out.complete + Dur::from_secs(3); // far beyond the 800 ms timeout
        }
        w.advance_to(t); // let the final CAM stretch time out too
        assert_eq!(w.meter.transition_count("psm_to_cam"), 5);
        assert_eq!(w.meter.transition_count("cam_to_psm"), 5);
    }

    #[test]
    fn write_draws_send_power() {
        let w = wnic();
        let r = w
            .model
            .estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::mib(1), None));
        let wr = w
            .model
            .estimate(SimTime::ZERO, &DeviceRequest::write(Bytes::mib(1), None));
        assert!(
            wr.energy > r.energy,
            "send (3.69 W) must beat recv (2.61 W)"
        );
        assert_eq!(wr.service_time, r.service_time);
    }

    #[test]
    fn bandwidth_sweep_changes_transfer_time() {
        for (mbps, secs) in [(1.0, 8.0), (2.0, 4.0), (5.5, 1.4545), (11.0, 0.7273)] {
            let p = WnicParams {
                bandwidth: BytesPerSec::from_mbit_per_sec(mbps),
                ..WnicParams::cisco_aironet350()
            };
            let mut w = wnic_cam(p);
            let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::mib(1), None));
            let expect = 1024.0 * 1024.0 * 8.0 / (mbps * 1e6) + 0.001;
            assert!(
                (out.service_time.as_secs_f64() - expect).abs() < 0.01,
                "{mbps} Mbps: {} vs {secs}",
                out.service_time
            );
        }
    }

    #[test]
    fn latency_sweep_dwells_at_idle_power() {
        let p = WnicParams {
            latency: Dur::from_millis(30),
            ..WnicParams::cisco_aironet350()
        };
        let mut w = wnic_cam(p);
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes(2000), None));
        assert!(out.service_time >= Dur::from_millis(30));
        // Latency energy = 1.41 W × 30 ms = 42.3 mJ, present in the total.
        assert!(out.energy.get() > 0.0423);
    }

    #[test]
    fn request_during_switch_waits() {
        let mut w = wnic_cam(WnicParams::cisco_aironet350());
        // Idle past the timeout so a CAM→PSM switch is in flight at 1 s.
        w.advance_to(SimTime::from_millis(1_000));
        assert!(matches!(w.model.state(), WnicState::ToPsm(_)));
        let out = w.service(
            SimTime::from_millis(1_000),
            &DeviceRequest::read(Bytes::kib(64), None),
        );
        // Finish ToPsm (ends at 1.21 s), then PSM→CAM 0.4 s, then serve.
        assert!(out.service_time >= Dur::from_millis(610));
    }

    #[test]
    fn estimate_does_not_mutate() {
        let w = wnic();
        let e1 = w
            .model
            .estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        let e2 = w
            .model
            .estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        assert_eq!(e1, e2);
        assert_eq!(w.meter.total(), Joules::ZERO);
    }

    #[test]
    fn is_ready_means_cam() {
        let mut w = wnic();
        assert!(!w.model.is_ready());
        w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        assert!(w.model.is_ready());
    }

    /// The state each label is booked in: a dwell in the mode or switch
    /// it names, a transition in the mode it leaves. Both switches dwell
    /// as `switching`, the switch out of the last mode.
    fn booked_in(last: &'static str, label: &'static str) -> &'static str {
        match label {
            "cam_idle" | "cam_transfer" | "cam_to_psm" => "Cam",
            "psm_idle" | "psm_transfer" | "psm_to_cam" => "Psm",
            "switching" if matches!(last, "Cam" | "ToPsm") => "ToPsm",
            "switching" => "ToCam",
            other => panic!("unknown WNIC label {other}"),
        }
    }

    fn name(state: WnicState) -> &'static str {
        match state {
            WnicState::Cam => "Cam",
            WnicState::ToPsm(_) => "ToPsm",
            WnicState::Psm => "Psm",
            WnicState::ToCam(_) => "ToCam",
        }
    }

    #[test]
    fn machine_walk_follows_the_paper_cycle() {
        let p = WnicParams::cisco_aironet350();
        let psm = p.psm_timeout + p.to_psm_time;
        // Idle gaps after the last request: none, then gaps straddling
        // both timeouts: inside the PSM timeout, exactly on it, inside
        // the switch, exactly at its end, and deep in PSM.
        let gaps = [
            Dur::ZERO,
            p.psm_timeout / 2,
            p.psm_timeout,
            p.psm_timeout + p.to_psm_time / 2,
            psm,
            psm * 3,
        ];
        // A request that forces CAM, then one a PSM beacon can drain.
        let sizes = [Bytes::kib(64), Bytes(p.psm_packet_bytes)];
        for mut card in [WnicModel::new(p), WnicModel::new_cam(p)] {
            let mut meter = PathMeter::new(name(card.state()), booked_in);
            for bytes in sizes {
                let mut arrived = BTreeSet::new();
                for gap in gaps {
                    let t = card.clock() + gap;
                    card.advance_to(t, &mut meter);
                    arrived.insert(name(card.state()));
                    card.service(t, &DeviceRequest::read(bytes, None), &mut meter);
                    assert_eq!(meter.last(), name(card.state()));
                }
                // No request finds the card switching to CAM: only
                // `service` starts that switch, and it rides it out.
                assert_eq!(arrived, BTreeSet::from(["Cam", "ToPsm", "Psm"]), "{bytes}");
            }
            meter.assert_cycle(["Cam", "ToPsm", "Psm", "ToCam"]);
        }
    }
}
