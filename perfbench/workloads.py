"""The benchmark's workloads: inputs from the seed, passes, output checks.

Each workload is a closed loop with one client: one process submits one
batch of work through the program's public entry points
(:func:`repro.experiments.table1.run`, :func:`repro.sim.run_campaign`),
waits for it, and submits the next pass. Every input is derived from the
workload seed; ``README.md`` in this directory records why each workload
exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import ResultCache
from repro.experiments import jobs, table1
from repro.experiments.config import ExperimentScale
from repro.sim import Campaign, CampaignResult, GeneratedSpec, get_scenario, run_campaign

from perfbench import checks, env, nnref

POLICIES = ("pseudo-random", "wall-following", "spiral", "rotate-and-measure")
KINDS = ("search", "explore")

#: The paper's three mean flight speeds, m/s (Fig. 5).
PAPER_SPEEDS = (0.1, 0.5, 1.0)

#: Generated-family worlds of the serial campaigns, realized from the seed.
#: The scatter field is the 1,500+-segment world.
FAMILIES: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("perfect-maze", {}),
    ("cluttered-warehouse", {}),
    ("random-apartment", {}),
    ("scatter-field", {"n_items": 160, "width": 24.0, "length": 18.0}),
)

#: The serial campaigns: (mission kind, preset world, policies). Each
#: also flies one world of every generated family.
SERIAL_CAMPAIGNS = (
    ("search", "paper-room", POLICIES[:2]),
    ("explore", "dense-depot", POLICIES[:2]),
    ("search", "apartment", POLICIES[2:]),
    ("explore", "corridor-maze", POLICIES[2:]),
)

#: Flight time of every campaign mission, s. Half the repository's smoke
#: flights (120 s), so that a run of ``--seconds 30`` still measures two
#: ``campaign-serial`` passes; ``README.md`` compares the layer shares
#: with 120 s.
FLIGHT_TIME_S = 60.0

#: Fleet block size: larger than any (world, kind) group of the fleet
#: workload, so each group flies as one block.
FLEET_BLOCK = 64


@dataclass
class Pass:
    """One timed pass over the workload's inputs."""

    wall_s: float
    items: int  #: training images (detector-train) or completed missions
    attempted: int  #: operations: width jobs or missions
    failed: int
    output: Any = None  #: what every pass must reproduce exactly
    result: Any = None  #: the rich result object, for the output checks
    error: str = ""
    #: The program call's time in reference seconds (:mod:`perfbench.calibrate`);
    #: set by :func:`perfbench.runner.measure`, 0 in traced runs.
    ref_s: float = 0.0


def plain_timer(fn: Callable[[], Any]) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def derive_seeds(n: int, *entropy: int) -> List[int]:
    """``n`` independent non-negative 31-bit seeds from ``entropy``.

    The first entropy word is the workload seed; the rest name the use,
    so different inputs never share a stream.
    """
    state = np.random.SeedSequence(list(entropy)).generate_state(n)
    return [int(s) >> 1 for s in state]


class Workload:
    """Base class: build inputs, run passes, check outputs."""

    name = ""
    why = ""
    #: What ``items_per_s`` measures here, under its name in ``README.md``.
    rate_name = ""
    #: Fewest passes a run measures, however long they take.
    min_passes = 2

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        #: Runs the program call of a pass; the timed run swaps in one that
        #: calibrates (:func:`perfbench.calibrate.timed`), the traced run one
        #: that wraps the layers (:func:`perfbench.tracing.traced`).
        self.timer: Callable[[Callable[[], Any]], Tuple[Any, float]] = plain_timer
        #: Passed as ``progress=`` to the program call, which calls it after
        #: each finished mission or width job.
        self.progress: Optional[Callable[..., None]] = None

    def operations(self) -> int:
        """Operations one pass attempts (width jobs or missions)."""
        raise NotImplementedError

    def build(self) -> None:
        """Construct the inputs; timed (several times) as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the first pass, after set-up (e.g. a warm-up)."""

    def run_pass(self) -> Pass:
        """One pass over the inputs; every pass runs the same inputs."""
        raise NotImplementedError

    def check(self, passes: Sequence[Pass]) -> List[str]:
        """Output checks after the timed passes."""
        return []

    def close(self) -> None:
        """Remove what the passes left on disk."""

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.scratch)


# -- detector training -------------------------------------------------------


class DetectorTrain(Workload):
    name = "detector-train"
    rate_name = "train_images_per_s (images/s)"
    why = (
        "Table I training of all three SSD widths, no cache: where end-to-end "
        "time goes (nn layers); every simulator layer is idle"
    )
    #: The training scale of one pass, reduced from smoke.
    SCALE = ExperimentScale(
        train_images=16, finetune_images=8, test_images=4, pretrain_epochs=1,
        finetune_epochs=1, batch_size=8, widths=(1.0, 0.75, 0.5), name="perfbench",
    )
    #: Size of the rebalanced web training set every pass trains on.
    WEB_IMAGES = 40

    def build(self) -> None:
        # The job list table1.run expands the scale into: the analogue
        # of campaign expansion, timed with the rest of set-up.
        jobs.table1_jobs(self.SCALE, self.seed)

    def prepare(self) -> None:
        """Choose the data seed, then train every width once briefly, so the
        first timed pass does not also pay for first-touch allocation of
        the activations."""
        self.data_seed = self.choose_data_seed()
        scale = self.SCALE
        self.images = len(scale.widths) * (
            scale.pretrain_epochs * self.WEB_IMAGES + scale.finetune_epochs * scale.finetune_images
        )
        warm = replace(scale, train_images=8, finetune_images=8, test_images=1,
                       pretrain_epochs=1, finetune_epochs=1)
        table1.run(warm, seed=derive_seeds(1, self.seed, 3)[0])

    def web_set_size(self, seed: int) -> int:
        """Size of the rebalanced web training set Table I builds for ``seed``."""
        web = jobs.rebalance_with_translation(
            jobs.make_openimages_like(self.SCALE.train_images, hw=jobs.TINY_HW, seed=seed),
            seed=seed + 1,
        )
        return len(web)

    def choose_data_seed(self) -> int:
        """The first seed derived from the workload seed whose rebalanced web
        set holds :attr:`WEB_IMAGES` images.

        Rebalancing grows the web set by a data-dependent amount, and a
        part-filled last batch costs nearly a full one, so per-image time
        would follow the workload seed. A fixed set size (whole batches)
        gives every seed the same work.
        """
        for candidate in derive_seeds(64, self.seed, 1):
            if self.web_set_size(candidate) == self.WEB_IMAGES:
                return candidate
        raise RuntimeError(f"no data seed gives {self.WEB_IMAGES} web images")

    def operations(self) -> int:
        return len(self.SCALE.widths)

    def run_pass(self) -> Pass:
        result, wall = self.timer(
            lambda: table1.run(self.SCALE, seed=self.data_seed, progress=self.progress)
        )
        output = [(row.testing_dataset, row.format, sorted(row.map_by_width.items()))
                  for row in result.rows]
        return Pass(wall, self.images, self.operations(), 0, output=output, result=result)

    def check(self, passes: Sequence[Pass]) -> List[str]:
        first = passes[0]
        if first.result is None:
            return ["no Table I pass completed"]
        # One training batch: the layer shapes below are the ones training runs.
        batch = jobs.make_openimages_like(
            self.SCALE.batch_size, hw=jobs.TINY_HW, seed=self.data_seed + 2
        )
        images = np.stack([item.image for item in batch])
        problems = checks.table1_problems(
            first.result, self.SCALE.widths, images,
            [item.boxes for item in batch], [item.labels for item in batch],
        )
        keys = nnref.capture_layer_shapes(self.SCALE.widths, images)
        return problems + nnref.check_layers(keys, self.seed)


# -- campaigns ---------------------------------------------------------------


class CampaignWorkload(Workload):
    """Shared pass logic of the campaign workloads."""

    campaigns: List[Campaign]

    def make_campaigns(self) -> List[Campaign]:
        raise NotImplementedError

    def build(self) -> None:
        """Realize the generated worlds and expand every campaign."""
        self.campaigns = self.make_campaigns()
        for campaign in self.campaigns:
            campaign.missions()

    def operations(self) -> int:
        return sum(c.size() for c in self.campaigns)

    def campaign_pass(self, wall: float, results: Sequence[CampaignResult]) -> Pass:
        attempted = self.operations()
        failed = sum(len(r.failures) for r in results)
        return Pass(
            wall, attempted - failed, attempted, failed,
            output=[r.to_json() for r in results], result=list(results),
        )

    def record_checks(self, passes: Sequence[Pass]) -> List[str]:
        """Range checks of the first pass (the runner compares the rest with it)."""
        if passes[0].result is None:
            return ["no campaign pass completed"]
        problems: List[str] = []
        for campaign, result in zip(self.campaigns, passes[0].result):
            problems += checks.campaign_problems(campaign, result)
        return problems


class CampaignSerial(CampaignWorkload):
    name = "campaign-serial"
    rate_name = "missions_per_s (missions/s, serial, cold cache)"
    why = (
        "20 worlds (16 generated from the seed) x 2 policies each, both kinds, 60 s flights, "
        "serially into a fresh cache: tick loops, single-origin raycasts, cache writes"
    )

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        #: The cache the latest pass filled; the warm replay reads it.
        self.cache_dir: Optional[str] = None

    def make_campaigns(self) -> List[Campaign]:
        """Ten worlds per mission kind, twenty in all, each flown by two of
        the 4 policies: per kind and policy pair, a preset and one world of
        each generated family realized from the seed.

        Search and explore missions in one world fly the same path, and
        a world whose start area traps the drone slows all its missions,
        so the flight cost follows the worlds: one scatter field costs
        from 1x to 2.4x another. Distinct worlds per kind and per policy
        pair average that over more worlds at the same number of missions.
        """
        world_seeds = iter(derive_seeds(len(SERIAL_CAMPAIGNS) * len(FAMILIES), self.seed, 2))
        campaigns = []
        for kind, preset, policies in SERIAL_CAMPAIGNS:
            generated = tuple(
                GeneratedSpec.create(family, params, seed=next(world_seeds))
                for family, params in FAMILIES
            )
            campaigns.append(Campaign(
                name=f"perfbench-serial-{kind}-{preset}", scenarios=(get_scenario(preset),),
                generated=generated, policies=policies, flight_time_s=FLIGHT_TIME_S,
                kind=kind, seed=self.seed,
            ))
        return campaigns

    def run_pass(self) -> Pass:
        return self.cold_pass(None)

    def cold_pass(self, workers: Optional[int]) -> Pass:
        """Every campaign into a fresh cache, through ``workers`` pool workers
        (``None`` flies every mission in this process)."""
        self.close()
        self.cache_dir = self.fresh_dir()
        cache = ResultCache(self.cache_dir)
        results, wall = self.timer(lambda: [
            run_campaign(c, workers=workers, cache=cache, keep_going=True, progress=self.progress)
            for c in self.campaigns
        ])
        return self.campaign_pass(wall, results)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def check(self, passes: Sequence[Pass]) -> List[str]:
        problems = self.record_checks(passes)
        first = passes[0]
        if first.result is not None:
            rng = np.random.default_rng(self.seed)
            k = int(rng.integers(len(self.campaigns)))
            problems += checks.fleet_matches_serial(self.campaigns[k], first.result[k], rng)
            problems += self.warm_replay_problems(first.output)
            pooled = self.cold_pass(env.usable_cores())  # untimed
            problems += checks.identical("pooled pass vs serial pass", pooled.output, first.output)
        return problems

    def warm_replay_problems(self, cold_output: List[str]) -> List[str]:
        """Replay the campaigns, untimed, from the cache the last pass filled:
        the replay must fly nothing and equal the cold pass."""
        if self.cache_dir is None:
            return ["no filled cache to replay"]
        cache = ResultCache(self.cache_dir)
        warm = [run_campaign(c, cache=cache, keep_going=True) for c in self.campaigns]
        problems = checks.identical(
            "warm replay vs cold pass", [r.to_json() for r in warm], cold_output
        )
        flown = sum(r.execution.executed for r in warm)
        if flown:
            problems.append(f"warm replay flew {flown} missions instead of loading them")
        return problems


class CampaignFleet(CampaignWorkload):
    name = "campaign-fleet"
    rate_name = "missions_per_s (missions/s, fleet-stepped)"
    why = (
        "paper sweeps (4 policies x 3 speeds) in the paper room plus a dense world, "
        "60 s flights, one fleet block per (world, kind), no cache: fly_fleet batching"
    )

    def make_campaigns(self) -> List[Campaign]:
        """The paper's sweeps in the paper room plus one dense (grid-walk) world."""
        scenarios = (get_scenario("paper-room"), get_scenario("dense-depot"))
        return [
            Campaign(name=f"perfbench-fleet-{kind}", scenarios=scenarios, policies=POLICIES,
                     speeds=PAPER_SPEEDS, flight_time_s=FLIGHT_TIME_S, kind=kind,
                     seed=self.seed)
            for kind in KINDS
        ]

    def run_pass(self) -> Pass:
        results, wall = self.timer(lambda: [
            run_campaign(c, fleet_block=FLEET_BLOCK, keep_going=True, progress=self.progress)
            for c in self.campaigns
        ])
        return self.campaign_pass(wall, results)

    def check(self, passes: Sequence[Pass]) -> List[str]:
        problems = self.record_checks(passes)
        if passes[0].result is not None:
            rng = np.random.default_rng(self.seed)
            for campaign, result in zip(self.campaigns, passes[0].result):
                problems += checks.serial_matches_fleet(campaign, result, rng)
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (DetectorTrain, CampaignSerial, CampaignFleet)
}
