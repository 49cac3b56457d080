//! Closed-loop driving evaluation — the success-rate metric behind Tables
//! II–VII.
//!
//! A trained policy is deployed on a free-moving test vehicle that must
//! navigate predefined routes: the policy sees the live BEV + command,
//! predicts waypoints, and a low-level pure-pursuit controller tracks them.
//! "We consider a trial on a given route successful if the testing autopilot
//! can safely reach the destination within a budget time without colliding
//! with other cars or pedestrians." The privileged expert can drive the
//! same trials instead ([`privileged_success_rate`]): the ceiling a policy
//! is measured against.

use crate::frame::observe_into;
use crate::learner::DrivingLearner;
use lbchat::exec;
use lbchat::obs::{Counter, EventKind, ObsSink};
use lbchat::ConfigError;
use rand::SeedableRng;
use simnet::geom::Vec2;
use simworld::agents::{FreeVehicle, VehicleRef};
use simworld::bev::Bev;
use simworld::expert::{command_for, Command};
use simworld::map::RoadNetwork;
use simworld::route::Route;
use simworld::world::{World, WorldConfig, FPS};
use vnn::TrainScratch;

/// The CARLA-benchmark-style task suite (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Drive a straight route, empty roads.
    Straight,
    /// A route with exactly one turn, empty roads.
    OneTurn,
    /// Full navigation with multiple turns, empty roads.
    NaviEmpty,
    /// Full navigation with normal traffic (50 cars, 250 pedestrians).
    NaviNormal,
    /// Full navigation with 1.2× the normal traffic.
    NaviDense,
}

impl Task {
    /// All five tasks in table order.
    pub const ALL: [Task; 5] =
        [Task::Straight, Task::OneTurn, Task::NaviEmpty, Task::NaviNormal, Task::NaviDense];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Task::Straight => "Straight",
            Task::OneTurn => "One Turn",
            Task::NaviEmpty => "Navi. (Empty)",
            Task::NaviNormal => "Navi. (Normal)",
            Task::NaviDense => "Navi. (Dense)",
        }
    }

    /// Background traffic (cars, pedestrians) for the task, scaled from the
    /// paper's 50/250 by `scale` (1.0 = paper scale).
    pub fn traffic(self, scale: f64) -> (usize, usize) {
        let base = |c: f64, p: f64| ((c * scale) as usize, (p * scale) as usize);
        match self {
            Task::Straight | Task::OneTurn | Task::NaviEmpty => (0, 0),
            Task::NaviNormal => base(50.0, 250.0),
            Task::NaviDense => base(60.0, 300.0), // 1.2×
        }
    }

    /// The evaluation world of the task under `cfg`: no experts, the task's
    /// background traffic, seeded by `cfg.world_seed` — the base every trial
    /// clones.
    pub fn world(self, cfg: &EvalConfig) -> World {
        let (cars, peds) = self.traffic(cfg.traffic_scale);
        World::new(WorldConfig {
            seed: cfg.world_seed,
            n_experts: 0,
            n_background: cars,
            n_pedestrians: peds,
            ..WorldConfig::default()
        })
    }
}

/// Allowed time per meter of route (the "budget time"); generous enough
/// that only genuinely lost vehicles time out.
pub const SECONDS_PER_METER: f64 = 0.45;

/// Success radius around the destination, meters.
pub const ARRIVAL_RADIUS_M: f32 = 12.0;

/// One control tick of a trial: a world frame, in seconds.
const DT: f32 = (1.0 / FPS) as f32;

/// Evaluation parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Trials (routes) per task.
    pub trials: usize,
    /// World seed for the evaluation environment.
    pub world_seed: u64,
    /// Route-draw seed (fixed across methods so every method faces the same
    /// routes).
    pub route_seed: u64,
    /// Traffic scale relative to the paper's counts.
    pub traffic_scale: f64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            trials: 25,
            world_seed: 1000,
            route_seed: 2000,
            traffic_scale: 1.0,
        }
    }
}

impl EvalConfig {
    /// Checks every field against its domain. A config is a struct literal
    /// over [`Default`]; this is the one place its domain is written down.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::require_nonzero("trials", self.trials)?;
        ConfigError::require_non_negative("traffic_scale", self.traffic_scale)?;
        Ok(())
    }
}

/// Outcome of one task's trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskResult {
    /// Successful trials.
    pub successes: usize,
    /// Total trials.
    pub trials: usize,
    /// Trials ended by collision.
    pub collisions: usize,
    /// Trials that ran out of budget.
    pub timeouts: usize,
    /// Trials that strayed too far from the route.
    pub off_route: usize,
}

impl TaskResult {
    /// Success rate in percent (the tables' unit); NaN for zero trials,
    /// which measure nothing.
    pub fn percent(&self) -> f64 {
        self.successes as f64 / self.trials as f64 * 100.0
    }
}

/// Tracks progress of the free-moving test vehicle along its assigned
/// route: projects the vehicle's position onto the route polyline and
/// advances monotonically (never backwards), so commands and the BEV route
/// channel stay consistent even when tracking is imperfect.
#[derive(Clone)]
struct RouteTracker {
    route: Route,
    edge_idx: usize,
    s: f32,
}

impl RouteTracker {
    fn new(route: Route) -> Self {
        Self { route, edge_idx: 0, s: 0.0 }
    }

    /// Advances the tracked point toward the position nearest `pos`,
    /// scanning up to `lookahead` meters forward along the route.
    fn update(&mut self, map: &RoadNetwork, pos: Vec2, lookahead: f32) {
        let mut best = (f32::INFINITY, self.edge_idx, self.s);
        let mut walked = 0.0f32;
        let mut e = self.edge_idx;
        let mut s = self.s;
        let step = 1.5f32;
        while walked <= lookahead && e < self.route.edges.len() {
            let p = map.position_on_edge(self.route.edges[e], s);
            let d = p.distance(pos);
            if d < best.0 {
                best = (d, e, s);
            }
            s += step;
            walked += step;
            if s >= map.edge(self.route.edges[e]).length {
                e += 1;
                s = 0.0;
            }
        }
        self.edge_idx = best.1;
        self.s = best.2;
    }

    /// The tracked progress as a route follower moving at `speed`: what
    /// the world's observer and the expert's labelers take.
    fn view(&self, speed: f32) -> VehicleRef<'_> {
        VehicleRef { route: &self.route, edge_idx: self.edge_idx, s: self.s, speed }
    }

    /// Lateral distance from the route at the tracked point.
    fn deviation(&self, map: &RoadNetwork, pos: Vec2) -> f32 {
        map.position_on_edge(self.route.edges[self.edge_idx], self.s).distance(pos)
    }

    fn destination(&self, map: &RoadNetwork) -> Vec2 {
        map.node(self.route.destination(map)).pos
    }
}

/// Draws a route matching the task's shape requirements.
#[expect(
    clippy::panic,
    reason = "a map with no route of the task's shape is a configuration bug no trial can run on"
)]
fn draw_route<R: rand::Rng + ?Sized>(world: &World, task: Task, rng: &mut R) -> Route {
    let map = world.map();
    for _ in 0..4000 {
        let a = map.random_node(rng);
        let b = map.random_node(rng);
        let Some(route) = world.router().route(a, b) else { continue };
        let len = route.length(map);
        let turns = route.turn_count(map);
        let ok = match task {
            Task::Straight => turns == 0 && (150.0..500.0).contains(&len),
            Task::OneTurn => turns == 1 && (180.0..600.0).contains(&len),
            _ => turns >= 2 && len >= 350.0,
        };
        if ok {
            return route;
        }
    }
    panic!("could not draw a route for task {task:?} — map too small?");
}

/// The low-level controller: pure pursuit on the farthest waypoints.
///
/// * Aim: the mean of the last two predicted waypoints — the turn geometry
///   appears at the far end of the time-spaced horizon first, so aiming far
///   both initiates turns earliest and damps near-field regression noise.
/// * Gain: the pure-pursuit curvature is boosted (`K_STEER`) because the
///   regressor systematically under-predicts bend magnitude (it averages
///   over the straight approach frames of each turn).
/// * Speed: the first (dt-spaced) waypoint's distance over dt — the
///   time-spaced supervision encodes the expert's speed choice — capped
///   during announced turns (the expert's own turn discipline).
fn steer(wp: &[f32], command: Command, speed: f32, dt: f32) -> (f32, f32) {
    const K_STEER: f32 = 2.0;
    let (w1x, w1y) = (wp[0], wp[1]);
    let k = wp.len() / 2;
    let mut ax = 0.0f32;
    let mut ay = 0.0f32;
    let mut n = 0.0f32;
    for c in wp.chunks(2).skip(k.saturating_sub(2)) {
        ax += c[0];
        ay += c[1];
        n += 1.0;
    }
    if n == 0.0 {
        ax = w1x;
        ay = w1y;
        n = 1.0;
    }
    let (ax, ay) = (ax / n, ay / n);
    let mut target_speed = (w1x.hypot(w1y) / dt).clamp(0.0, 22.0);
    if matches!(command, Command::Left | Command::Right) {
        target_speed = target_speed.min(5.0);
    }
    let look_sq = (ax * ax + ay * ay).max(1e-3);
    let curvature = 2.0 * ay / look_sq;
    let yaw_rate = K_STEER * speed.max(1.5) * curvature;
    (yaw_rate, target_speed)
}

/// How a closed-loop trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrialEnd {
    /// Reached the destination within the budget.
    Success,
    /// Hit a car or a pedestrian.
    Collision,
    /// Strayed hopelessly far from the route.
    OffRoute,
    /// Ran out of budget.
    Timeout,
}

impl TrialEnd {
    /// The `outcome` a `trial` event records.
    fn outcome(self) -> &'static str {
        match self {
            TrialEnd::Success => "success",
            TrialEnd::Collision => "collision",
            TrialEnd::OffRoute => "off_route",
            TrialEnd::Timeout => "timeout",
        }
    }
}

/// Who drives the test vehicle.
#[derive(Clone, Copy)]
enum Driver<'a> {
    /// A trained policy: observe, pool, predict.
    Policy(&'a DrivingLearner),
    /// The privileged expert: its own waypoint labels at the tracked
    /// progress, for the speed its rule chooses there, moved from the
    /// route pose's frame into the ego's — the ceiling any policy could
    /// reach in the task's world.
    Privileged,
}

/// One control tick of a trial as its observer sees it: the state the
/// driver was shown and what it answered, before the vehicle moves.
struct Tick<'a> {
    /// Seconds since the trial started.
    t: f64,
    ego: &'a FreeVehicle,
    /// Distance from the tracked route point.
    deviation: f32,
    command: Command,
    /// The driver's waypoints, ego frame, `x, y` interleaved.
    waypoints: &'a [f32],
    /// Straight-line distance to the destination.
    to_destination: f32,
}

/// One closed-loop trial in flight: the evaluation world, the test vehicle
/// and its progress along the route, and the buffers a control tick reuses
/// (one BEV frame, one feature/waypoint/scratch set).
#[derive(Clone)]
struct Rollout {
    world: World,
    ego: FreeVehicle,
    tracker: RouteTracker,
    destination: Vec2,
    /// The "budget time": past it the trial is a timeout.
    budget: f64,
    /// Seconds since the trial started.
    t: f64,
    bev: Bev,
    features: Vec<f32>,
    wp: Vec<f32>,
    scratch: TrainScratch,
}

impl Rollout {
    /// Puts the test vehicle at the head of `route` in `world`.
    fn new(world: World, route: Route) -> Self {
        let map_len = route.length(world.map());
        let tracker = RouteTracker::new(route);
        Self {
            destination: tracker.destination(world.map()),
            budget: (map_len as f64 * SECONDS_PER_METER).max(60.0),
            t: 0.0,
            ego: FreeVehicle::new(tracker.view(0.0).pose(world.map())),
            tracker,
            bev: Bev::blank(world.config().bev.cells),
            world,
            features: Vec::new(),
            wp: Vec::new(),
            scratch: TrainScratch::new(),
        }
    }

    /// Trial number `trial` of `task` exactly as [`success_rate`] sets it
    /// up: its own clone of `base` ([`Task::world`]), warmed a trial-specific number of frames to decorrelate traffic, and
    /// a route drawn from `cfg.route_seed` and the trial index.
    fn of_trial(base: &World, task: Task, cfg: &EvalConfig, trial: usize) -> Self {
        let mut world = base.clone();
        for _ in 0..(10 + 13 * trial) {
            world.step();
        }
        let mut route_rng = rand::rngs::StdRng::seed_from_u64(exec::derive_seed(
            cfg.route_seed,
            "eval-route",
            trial as u64,
        ));
        let route = draw_route(&world, task, &mut route_rng);
        Self::new(world, route)
    }

    /// One control tick, shown to `observe` before the vehicle moves;
    /// `Some` once the trial has ended, with how and when — the tick the
    /// verdict fell in, or the whole budget for a timeout.
    fn advance(
        &mut self,
        driver: Driver<'_>,
        observe: &mut impl FnMut(&Tick),
    ) -> Option<(TrialEnd, f64)> {
        if self.t >= self.budget {
            return Some((TrialEnd::Timeout, self.budget));
        }
        let (world, ego, tracker) = (&mut self.world, &mut self.ego, &mut self.tracker);
        tracker.update(world.map(), ego.pose.pos, 25.0);
        // Arrived?
        if ego.pose.pos.distance(self.destination) <= ARRIVAL_RADIUS_M {
            return Some((TrialEnd::Success, self.t));
        }
        let progress = tracker.view(ego.speed);
        let command = match driver {
            Driver::Policy(learner) => {
                // Observe: what an expert at the tracked progress would
                // see, from the ego's own pose.
                let (bev, features) = (&mut self.bev, &mut self.features);
                let (command, _) = observe_into(world, progress, ego.pose, None, bev, features);
                learner.predict_into(&self.features, command, &mut self.wp, &mut self.scratch);
                command
            }
            Driver::Privileged => {
                let route_pose = progress.pose(world.map());
                self.wp.clear();
                for c in world.expert_waypoints(progress).chunks(2) {
                    let p = ego.pose.to_ego(route_pose.to_world(Vec2::new(c[0], c[1])));
                    self.wp.extend([p.x, p.y]);
                }
                command_for(world.map(), progress)
            }
        };
        observe(&Tick {
            t: self.t,
            ego,
            deviation: tracker.deviation(world.map(), ego.pose.pos),
            command,
            waypoints: &self.wp,
            to_destination: ego.pose.pos.distance(self.destination),
        });

        // Low-level control: pure pursuit on the mean of the last two
        // waypoints, speed from the first (time-spaced at dt).
        let (yaw_rate, target_speed) = steer(&self.wp, command, ego.speed, DT);
        ego.step(yaw_rate, target_speed, DT);

        // Judge.
        if world.collides(ego.pose.pos, 1.5) {
            return Some((TrialEnd::Collision, self.t));
        }
        if tracker.deviation(world.map(), ego.pose.pos) > 35.0 {
            return Some((TrialEnd::OffRoute, self.t));
        }
        world.step();
        self.t += DT as f64;
        None
    }

    /// Drives the trial to its end, showing `observe` every control tick.
    fn run(mut self, driver: Driver<'_>, observe: &mut impl FnMut(&Tick)) -> (TrialEnd, f64) {
        loop {
            if let Some(end) = self.advance(driver, observe) {
                return end;
            }
        }
    }
}

/// Drives trial `trial` of `task` exactly as [`success_rate_obs`] does
/// (same world clone, warm-up and route), printing per-frame telemetry to
/// stderr — a development aid for the controller (the `debug_drive`
/// binary). Returns the trial's outcome, as its `trial` event records it.
pub fn debug_one_trial(
    learner: &DrivingLearner,
    task: Task,
    cfg: &EvalConfig,
    trial: usize,
) -> &'static str {
    let rollout = Rollout::of_trial(&task.world(cfg), task, cfg, trial);
    let (map, route) = (rollout.world.map(), &rollout.tracker.route);
    eprintln!(
        "== {} trial {trial} route: {:.0} m, {} turns ==",
        task.name(),
        route.length(map),
        route.turn_count(map)
    );
    let mut frame = 0u64;
    let mut print_every_tenth = |tick: &Tick| {
        if frame % 10 == 0 {
            let (ego, wp) = (tick.ego, tick.waypoints);
            eprintln!(
                "t={:>5.1} pos=({:>5.0},{:>5.0}) v={:>4.1} dev={:>5.1} cmd={:?} w1=({:.1},{:.1}) w2=({:.1},{:.1}) dest={:>4.0}",
                tick.t, ego.pose.pos.x, ego.pose.pos.y, ego.speed, tick.deviation,
                tick.command, wp[0], wp[1], wp[2], wp[3], tick.to_destination,
            );
        }
        frame += 1;
    };
    let (end, t) = rollout.run(Driver::Policy(learner), &mut print_every_tenth);
    eprintln!("{} at t={t:.0}s", end.outcome());
    end.outcome()
}

/// Evaluates a trained learner on `task`: `cfg.trials` routes, each driven
/// closed-loop against the task's traffic level.
///
/// Trials are fully independent: each starts from its own clone of a shared
/// base world, warmed a trial-specific number of frames to decorrelate
/// traffic, with its own route RNG derived from `cfg.route_seed` and the
/// trial index. Independence makes the trials embarrassingly parallel —
/// they run on the [`lbchat::exec`] worker pool — and the result is
/// bit-identical for any `LBCHAT_JOBS` setting. Routes depend only on the
/// (static) map and the derived seeds, so every method still faces the same
/// routes.
pub fn success_rate(learner: &DrivingLearner, task: Task, cfg: &EvalConfig) -> TaskResult {
    success_rate_obs(learner, task, cfg, &ObsSink::disabled())
}

/// [`success_rate`] with observability: when `obs` is recording, each
/// trial runs inside a `work_unit` span (stage `trial:<task>`) and emits
/// one `trial` event with its outcome (`success`, `collision`,
/// `off_route` or `timeout`), alongside the `trials`, `collisions`,
/// `off_routes` and `timeouts` counters. With a disabled sink this is
/// exactly [`success_rate`].
pub fn success_rate_obs(
    learner: &DrivingLearner,
    task: Task,
    cfg: &EvalConfig,
    obs: &ObsSink,
) -> TaskResult {
    // Freeze the policy here, once, rather than in whichever trial asks first
    // while the others wait on it.
    learner.frozen();
    driven_success_rate(Driver::Policy(learner), task, cfg, obs)
}

/// [`success_rate`] with the privileged expert at the wheel instead of a
/// policy: the same routes, traffic, controller, judge and budget, so it is
/// the ceiling any learned policy can reach on `task` in this world.
pub fn privileged_success_rate(task: Task, cfg: &EvalConfig) -> TaskResult {
    driven_success_rate(Driver::Privileged, task, cfg, &ObsSink::disabled())
}

/// [`success_rate_obs`] under any [`Driver`].
fn driven_success_rate(
    driver: Driver<'_>,
    task: Task,
    cfg: &EvalConfig,
    obs: &ObsSink,
) -> TaskResult {
    let base = task.world(cfg);
    let stage = format!("trial:{}", task.name());
    let outcomes = exec::par_run_traced(obs, &stage, cfg.trials, |trial| {
        let (end, _) = Rollout::of_trial(&base, task, cfg, trial).run(driver, &mut |_| {});
        if obs.enabled() {
            obs.add(Counter::Trials, 1);
            match end {
                TrialEnd::Success => {}
                TrialEnd::Collision => obs.add(Counter::Collisions, 1),
                TrialEnd::OffRoute => obs.add(Counter::OffRoutes, 1),
                TrialEnd::Timeout => obs.add(Counter::Timeouts, 1),
            }
            obs.emit(
                EventKind::Trial,
                &[
                    ("task", task.name().into()),
                    ("trial", trial.into()),
                    ("outcome", end.outcome().into()),
                ],
            );
        }
        end
    });
    let count = |end: TrialEnd| outcomes.iter().filter(|&&e| e == end).count();
    TaskResult {
        successes: count(TrialEnd::Success),
        trials: cfg.trials,
        collisions: count(TrialEnd::Collision),
        timeouts: count(TrialEnd::Timeout),
        off_route: count(TrialEnd::OffRoute),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_datasets, CollectConfig};
    use lbchat::Learner;

    fn quick_cfg() -> EvalConfig {
        EvalConfig { trials: 4, ..EvalConfig::default() }
    }

    #[test]
    fn task_metadata() {
        assert_eq!(Task::ALL.len(), 5);
        assert_eq!(Task::NaviDense.traffic(1.0), (60, 300));
        assert_eq!(Task::Straight.traffic(1.0), (0, 0));
        assert_eq!(Task::NaviNormal.name(), "Navi. (Normal)");
    }

    #[test]
    fn result_percent() {
        let r = TaskResult { successes: 3, trials: 4, collisions: 1, timeouts: 0, off_route: 0 };
        assert!((r.percent() - 75.0).abs() < 1e-9);
        assert!(TaskResult { trials: 0, successes: 0, ..r }.percent().is_nan());
    }

    #[test]
    fn builder_validates_domains() {
        let cfg = EvalConfig {
            trials: 2,
            world_seed: 5,
            route_seed: 6,
            traffic_scale: 0.5,
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(EvalConfig { traffic_scale: 0.0, ..cfg.clone() }.validate(), Ok(()));
        assert!(EvalConfig { trials: 0, ..cfg.clone() }.validate().is_err());
        assert!(EvalConfig { traffic_scale: f64::NAN, ..cfg }.validate().is_err());
    }

    /// Destructured without `..`: adding or removing a field fails to
    /// compile here until the count is a decision someone made.
    #[test]
    fn defaults_are_the_paper_setup_over_four_fields() {
        let EvalConfig { trials, world_seed, route_seed, traffic_scale } = EvalConfig::default();
        assert_eq!(trials, 25);
        assert_eq!(world_seed, 1000);
        assert_eq!(route_seed, 2000);
        assert_eq!(traffic_scale, 1.0);
        assert_eq!((SECONDS_PER_METER, ARRIVAL_RADIUS_M), (0.45, 12.0));
        assert_eq!(EvalConfig::default().validate(), Ok(()));
    }

    fn untrained_learner() -> DrivingLearner {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let spec = DrivingLearner::spec_for(
            simworld::bev::BevConfig::default().feature_len(),
            5,
        );
        DrivingLearner::new(&spec, 1e-3, &mut rng)
    }

    /// `success_rate_obs` on a recording sink, with the `outcome` of each
    /// `trial` event by trial index.
    fn recorded_outcomes(learner: &DrivingLearner, task: Task) -> (TaskResult, Vec<String>, ObsSink) {
        let sink = ObsSink::recording();
        let r = success_rate_obs(learner, task, &quick_cfg(), &sink);
        let mut outcomes = vec![String::new(); r.trials];
        for e in sink.events().iter().filter(|e| e.is(EventKind::Trial)) {
            let trial = e.get("trial").and_then(lbchat::obs::Json::as_u64).unwrap() as usize;
            assert!(outcomes[trial].is_empty(), "trial {trial} has two events");
            outcomes[trial] = e.str_field("outcome").unwrap().to_string();
        }
        (r, outcomes, sink)
    }

    #[test]
    fn trial_ends_sum_to_trials_and_match_the_events() {
        let (r, outcomes, sink) = recorded_outcomes(&untrained_learner(), Task::NaviEmpty);
        assert_eq!(r.successes + r.collisions + r.timeouts + r.off_route, r.trials, "{r:?}");
        assert!(r.off_route > 0, "the untrained policy leaves the route: {r:?}");
        let n = |outcome: &str| outcomes.iter().filter(|o| *o == outcome).count();
        assert_eq!(
            [n("success"), n("collision"), n("timeout"), n("off_route")],
            [r.successes, r.collisions, r.timeouts, r.off_route],
            "one trial event per trial, by outcome: {outcomes:?}"
        );
        let counters = sink.counters();
        let count = |c: Counter| counters.get(c.name()).copied().unwrap_or(0) as usize;
        assert_eq!(
            [count(Counter::Trials), count(Counter::Collisions), count(Counter::Timeouts), count(Counter::OffRoutes)],
            [r.trials, r.collisions, r.timeouts, r.off_route]
        );
    }

    #[test]
    fn debug_trial_drives_the_counted_trial() {
        let learner = untrained_learner();
        let (_, outcomes, _) = recorded_outcomes(&learner, Task::NaviEmpty);
        assert_eq!(debug_one_trial(&learner, Task::NaviEmpty, &quick_cfg(), 0), outcomes[0]);
    }

    /// The ceiling: with the privileged expert at the wheel, the empty-road
    /// tasks pass at the quick scale's evaluation setup (`harness::
    /// eval_config` of `Scale::quick`: seeds 1042 / 2042, traffic 0.2), so
    /// a policy that fails them fails on its own account, not the world's.
    #[test]
    fn privileged_driver_passes_the_empty_road_tasks() {
        let cfg = EvalConfig {
            trials: 25,
            world_seed: 1042,
            route_seed: 2042,
            traffic_scale: 0.2,
        };
        for task in [Task::Straight, Task::OneTurn, Task::NaviEmpty] {
            let r = privileged_success_rate(task, &cfg);
            assert!(r.percent() >= 90.0, "{task:?}: {r:?}");
        }
    }

    #[test]
    fn untrained_model_fails_navigation() {
        let r = success_rate(&untrained_learner(), Task::NaviEmpty, &quick_cfg());
        assert!(
            r.successes <= r.trials / 2,
            "an untrained model should mostly fail: {r:?}"
        );
    }

    /// FNV-1a folded one 32-bit word at a time.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xCBF2_9CE4_8422_2325)
        }

        fn word(&mut self, w: u32) {
            self.0 = (self.0 ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01B3);
        }

        fn f32s(&mut self, v: &[f32]) {
            for x in v {
                self.word(x.to_bits());
            }
        }

        fn f64(&mut self, x: f64) {
            let bits = x.to_bits();
            self.word(bits as u32);
            self.word((bits >> 32) as u32);
        }
    }

    /// One line per trial of every task in `tasks` under `learner`: the
    /// outcome, the end time's bits, the tick count and a digest of every
    /// tick the observer was shown.
    fn render_trials(
        out: &mut String,
        label: &str,
        learner: &DrivingLearner,
        tasks: &[Task],
        cfg: &EvalConfig,
    ) {
        for &task in tasks {
            let base = task.world(cfg);
            for trial in 0..cfg.trials {
                let (mut ticks, mut h) = (0u64, Fnv::new());
                let rollout = Rollout::of_trial(&base, task, cfg, trial);
                let (end, t) = rollout.run(Driver::Policy(learner), &mut |tick| {
                    ticks += 1;
                    h.f64(tick.t);
                    let FreeVehicle { pose, speed } = *tick.ego;
                    h.f32s(&[pose.pos.x, pose.pos.y, pose.heading, speed, tick.deviation]);
                    h.word(tick.command.index() as u32);
                    h.f32s(tick.waypoints);
                    h.f32s(&[tick.to_destination]);
                });
                out.push_str(&format!(
                    "{label} {task:?} {trial} {} {:016x} {ticks} {:016x}\n",
                    end.outcome(),
                    t.to_bits(),
                    h.0
                ));
            }
        }
    }

    /// Pins the closed-loop evaluator tick by tick: the frames a small
    /// world's experts record, then every trial of every task under a
    /// briefly trained learner and, for the outcomes it never reaches, a
    /// longer-trained one. Regenerate after an intentional change with
    /// `LBCHAT_GOLDEN_WRITE=1 cargo test -p driving --lib
    /// rollout_trace_matches_golden_fixture`.
    #[test]
    fn rollout_trace_matches_golden_fixture() {
        let mut world = World::new(WorldConfig::small(11));
        let datasets = collect_datasets(
            &mut world,
            &CollectConfig { seconds: 60.0, stride: 1, balance_commands: true },
        );
        let frames: Vec<&crate::Frame> =
            datasets.iter().flat_map(|d| d.samples().iter()).collect();
        let mut h = Fnv::new();
        let mut features = Vec::new();
        for f in &frames {
            f.features_into(&mut features);
            h.f32s(&features);
            h.word(f.command.index() as u32);
            h.f32s(f.waypoints());
        }
        let mut rendered = format!("frames {} {:016x}\n", frames.len(), h.0);

        let spec =
            DrivingLearner::spec_for(world.config().bev.feature_len(), simworld::world::N_WAYPOINTS);
        let mut learner =
            DrivingLearner::new(&spec, 3e-3, &mut rand::rngs::StdRng::seed_from_u64(2));
        let mut batches = frames.chunks(64).cycle();
        let mut train = |learner: &mut DrivingLearner, steps: usize| {
            for chunk in batches.by_ref().take(steps) {
                let batch: Vec<(&crate::Frame, f32)> = chunk.iter().map(|&f| (f, 1.0)).collect();
                learner.train_step(&batch);
            }
        };
        let cfg = EvalConfig { trials: 3, traffic_scale: 0.5, ..EvalConfig::default() };
        train(&mut learner, 30);
        render_trials(&mut rendered, "brief", &learner, &Task::ALL, &cfg);
        // Success is first reached on the simplest routes.
        train(&mut learner, 300);
        render_trials(&mut rendered, "longer", &learner, &[Task::Straight, Task::OneTurn], &cfg);

        for outcome in ["success", "collision", "off_route", "timeout"] {
            assert!(
                rendered.lines().any(|l| l.split(' ').nth(3) == Some(outcome)),
                "no trial ended in {outcome}:\n{rendered}"
            );
        }
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/rollout_trace.txt");
        if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
            std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
            std::fs::write(&path, &rendered).expect("write fixture");
            return;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e}; record it with LBCHAT_GOLDEN_WRITE=1", path.display())
        });
        for (n, (a, g)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, g, "line {} diverged from the golden rollout trace", n + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            golden.lines().count(),
            "trial count diverged"
        );
    }

    #[test]
    fn trained_model_drives_straight_routes() {
        // Train on a small world until the imitation loss is low, then the
        // policy must handle at least straight driving.
        let mut world = World::new(WorldConfig::small(11));
        let datasets =
            collect_datasets(&mut world, &CollectConfig { seconds: 240.0, stride: 1, balance_commands: true });
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let spec =
            DrivingLearner::spec_for(world.config().bev.feature_len(), simworld::world::N_WAYPOINTS);
        let mut learner = DrivingLearner::new(&spec, 3e-3, &mut rng);
        // Train on the pooled data.
        let all: Vec<&crate::Frame> =
            datasets.iter().flat_map(|d| d.samples().iter()).collect();
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..all.len()).collect();
        for _ in 0..60 {
            order.shuffle(&mut rng);
            for chunk in order.chunks(64) {
                let batch: Vec<(&crate::Frame, f32)> =
                    chunk.iter().map(|&i| (all[i], 1.0)).collect();
                learner.train_step(&batch);
            }
        }
        let mut losses = Vec::new();
        learner.losses_with(learner.params(), &all, &mut losses);
        let mean_loss: f32 = losses.iter().sum::<f32>() / all.len() as f32;
        assert!(mean_loss < 1.2, "imitation must fit the experts: {mean_loss}");
        let r = success_rate(&learner, Task::Straight, &quick_cfg());
        assert!(
            r.successes >= r.trials / 2,
            "a trained model should mostly manage straight routes: {r:?}"
        );
    }
}
