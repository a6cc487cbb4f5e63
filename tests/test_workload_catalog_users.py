"""Tests for the file catalog, quota decks, and the user population."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.isp import ISP, default_registry
from repro.netsim.ip import IpResolver
from repro.transfer.protocols import Protocol
from repro.workload.catalog import FileCatalog, PROTOCOL_MIX, QuotaDeck
from repro.workload.filetypes import FileType
from repro.workload.users import UserPopulation


class TestQuotaDeck:
    def test_exact_proportions_per_deck_cycle(self):
        deck = QuotaDeck(("a", "b"), (0.7, 0.3), deck_size=10)
        rng = np.random.default_rng(0)
        draws = Counter(deck.draw(rng) for _ in range(10))
        assert draws == {"a": 7, "b": 3}

    def test_reshuffles_after_exhaustion(self):
        deck = QuotaDeck(("a", "b"), (0.5, 0.5), deck_size=4)
        rng = np.random.default_rng(1)
        draws = Counter(deck.draw(rng) for _ in range(40))
        assert draws == {"a": 20, "b": 20}

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotaDeck((), ())
        with pytest.raises(ValueError):
            QuotaDeck(("a",), (0.5, 0.5))


class TestFileCatalog:
    @pytest.fixture(scope="class")
    def catalog(self):
        catalog = FileCatalog()
        catalog.generate(3000, np.random.default_rng(2))
        return catalog

    def test_generation_count_and_uniqueness(self, catalog):
        assert len(catalog) == 3000
        assert len({record.file_id for record in catalog}) == 3000

    def test_protocol_mix_is_stratified(self, catalog):
        counts = Counter(record.protocol for record in catalog)
        for protocol, share in PROTOCOL_MIX:
            assert counts[protocol] / len(catalog) == \
                pytest.approx(share, abs=0.01)

    def test_source_urls_carry_protocol_and_id(self, catalog):
        for record in list(catalog)[:50]:
            assert record.source_url == \
                f"{record.protocol.value}://origin/{record.file_id}"

    def test_type_mix(self, catalog):
        counts = Counter(record.file_type for record in catalog)
        video_share = counts[FileType.VIDEO] / len(catalog)
        assert video_share == pytest.approx(0.75, abs=0.03)

    def test_indexing(self, catalog):
        record = next(iter(catalog))
        assert catalog[record.file_id] is record
        assert catalog.get(record.file_id) is record
        assert catalog.get("missing") is None

    def test_total_demand_consistency(self, catalog):
        assert catalog.total_demand() == catalog.demands().sum()

    def test_class_shares_sum_to_one(self, catalog):
        assert sum(catalog.class_file_shares().values()) == \
            pytest.approx(1.0)
        assert sum(catalog.class_request_shares().values()) == \
            pytest.approx(1.0)

    def test_negative_count_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.generate(-1, np.random.default_rng(3))


class TestUserPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        population = UserPopulation()
        population.generate(2000, np.random.default_rng(4))
        return population

    def test_count_and_unique_ids(self, population):
        assert len(population) == 2000
        assert len({user.user_id for user in population}) == 2000

    def test_ip_resolves_to_claimed_isp(self, population):
        resolver = IpResolver()
        for user in population[:200]:
            assert resolver.resolve(user.ip_address) is user.isp

    def test_isp_shares_roughly_match_registry(self, population):
        counts = Counter(user.isp for user in population)
        shares = default_registry().population_shares()
        for isp, share in shares.items():
            assert counts[isp] / len(population) == \
                pytest.approx(share, abs=0.035)

    def test_reported_bandwidth_respects_flag(self, population):
        for user in population[:200]:
            if user.reports_bandwidth:
                assert user.reported_bandwidth == user.access_bandwidth
            else:
                assert user.reported_bandwidth is None

    def test_report_probability_calibration(self, population):
        reporting = sum(1 for user in population
                        if user.reports_bandwidth)
        assert reporting / len(population) == pytest.approx(0.7,
                                                            abs=0.04)

    def test_sampling_requires_population(self):
        empty = UserPopulation()
        with pytest.raises(RuntimeError):
            empty.sample_user(np.random.default_rng(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            UserPopulation(report_probability=1.5)


# -- the column generators against the scalar loops they replace ------------


def _reference_files(catalog, start, count, rng):
    """The row-building catalog loop the column generator replaced:
    each draw made through the sampler API it used (``rng.uniform``,
    ``rng.normal``, a numpy ``searchsorted`` per demand)."""
    from repro.storage.dedup import content_id
    from repro.workload.popularity import (
        HIGHLY_POPULAR_ABOVE,
        UNPOPULAR_BELOW,
    )
    sizes, popularity = catalog.size_model, catalog.popularity_model
    tables = {}
    for name, support, weights in (
            ("geometric", np.arange(1, UNPOPULAR_BELOW),
             (1 - popularity.unpopular_geom_p)
             ** (np.arange(1, UNPOPULAR_BELOW) - 1.0)),
            ("powerlaw",
             np.arange(UNPOPULAR_BELOW, HIGHLY_POPULAR_ABOVE + 1),
             np.arange(UNPOPULAR_BELOW, HIGHLY_POPULAR_ABOVE + 1)
             .astype(float) ** -popularity.popular_exponent)):
        cdf = (weights / weights.sum()).cumsum()
        tables[name] = (support, cdf / cdf[-1])

    def size():
        if rng.random() < sizes.small_share:
            return float(np.exp(rng.uniform(np.log(sizes.min_size),
                                            np.log(sizes.small_threshold)))
                         ), True
        while True:
            value = sizes.large_median * float(
                np.exp(rng.normal(0.0, sizes.large_sigma)))
            if sizes.small_threshold <= value <= sizes.max_size:
                return value, False

    def demand():
        draw = rng.random()
        if draw < popularity.unpopular_file_share:
            support, cdf = tables["geometric"]
        elif draw < popularity.unpopular_file_share \
                + popularity.popular_file_share:
            support, cdf = tables["powerlaw"]
        else:
            while True:
                value = popularity.highly_popular_median * float(np.exp(
                    rng.normal(0.0, popularity.highly_popular_sigma)))
                if HIGHLY_POPULAR_ABOVE + 1 <= value \
                        <= popularity.max_weekly_demand:
                    return int(np.floor(value))
        index = cdf.searchsorted(rng.random(), side="right")
        return int(support[min(index, len(support) - 1)])

    model = catalog.type_model
    protocols = QuotaDeck(tuple(p for p, _ in PROTOCOL_MIX),
                          tuple(share for _, share in PROTOCOL_MIX))
    types = {True: QuotaDeck(tuple(model.small_mix),
                             tuple(model.small_mix.values())),
             False: QuotaDeck(tuple(model.large_mix),
                              tuple(model.large_mix.values()))}
    rows = []
    for index in range(start, start + count):
        file_size, is_small = size()
        protocol = protocols.draw(rng)
        file_id = content_id(f"file-{index}")
        rows.append({"file_id": file_id, "size": file_size,
                     "file_type": types[is_small].draw(rng).value,
                     "protocol": protocol.value, "weekly_demand": demand(),
                     "source_url": f"{protocol.value}://origin/{file_id}"})
    return rows


def _reference_users(population, start, count, rng, allocator):
    """The row-building user loop the column generator replaced."""
    from repro.sim.clock import mbps
    shares = population.registry.population_shares()
    order = list(shares)
    model = population.bandwidth_model
    rows = []
    for index in range(start, start + count):
        isp = order[int(rng.choice(len(order),
                                   p=np.array(list(shares.values()))))]
        if rng.random() < model.low_tail_fraction:
            bandwidth = float(np.exp(rng.uniform(
                np.log(mbps(0.064)), np.log(mbps(1.0)))))
        else:
            bandwidth = float(min(model.body_median * np.exp(
                rng.normal(0.0, model.body_sigma)), model.max_downstream))
        rows.append({"user_id": f"u{index:08d}",
                     "ip_address": allocator.allocate(isp),
                     "isp": isp.value, "access_bandwidth": bandwidth,
                     "reports_bandwidth":
                         bool(rng.random() < population.report_probability)})
    return rows


@settings(derandomize=True, max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(0, 400), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_column_generators_equal_the_scalar_loops(counts, seed):
    """``generate(a)`` then ``generate(b)`` on one stream -- as a
    multi-week catalog grows -- makes the rows, and leaves the stream
    where, the scalar loops do."""
    from repro.netsim.ip import IpAllocator
    catalog, population = FileCatalog(), UserPopulation()
    catalog_rng = np.random.default_rng(seed)
    users_rng = np.random.default_rng(seed + 1)
    reference_catalog_rng = np.random.default_rng(seed)
    reference_users_rng = np.random.default_rng(seed + 1)
    allocator = IpAllocator(population.registry)
    files, users = [], []
    for count in counts:
        files += _reference_files(catalog, len(catalog), count,
                                  reference_catalog_rng)
        users += _reference_users(population, len(population), count,
                                  reference_users_rng, allocator)
        catalog.generate(count, catalog_rng)
        population.generate(count, users_rng)
    assert [record.to_dict() for record in catalog] == files
    assert [user.to_dict() for user in population] == users
    assert catalog_rng.random() == reference_catalog_rng.random()
    assert users_rng.random() == reference_users_rng.random()


# -- rows are built on demand, once -------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``CatalogFile`` and ``User`` rows built from here on."""
    from repro.workload.records import CatalogFile, User
    counts = {CatalogFile: 0, User: 0}
    for record_type in counts:
        def counting(self, *args, __init=record_type.__init__,
                     __type=record_type, **kwargs):
            counts[__type] += 1
            __init(self, *args, **kwargs)
        monkeypatch.setattr(record_type, "__init__", counting)
    return counts


def test_generate_then_save_builds_no_row(constructions, tmp_path):
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    from repro.workload.traceio import save_workload
    week = WorkloadGenerator(WorkloadConfig(scale=0.002)).generate()
    save_workload(week, tmp_path, trace_format="columnar")
    assert len(week.catalog) and len(week.users)
    assert set(constructions.values()) == {0}


def test_a_mapped_week_builds_each_row_once_on_access(constructions,
                                                      tmp_path):
    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    from repro.workload.records import CatalogFile, User
    from repro.workload.traceio import load_workload, save_workload
    save_workload(WorkloadGenerator(WorkloadConfig(scale=0.002)).generate(),
                  tmp_path, trace_format="columnar")
    week = load_workload(tmp_path)
    week.request_columns()
    assert set(constructions.values()) == {0}
    first = week.catalog.row(3)
    assert constructions == {CatalogFile: len(week.catalog), User: 0}
    assert week.catalog.row(3) is first
    assert week.catalog[first.file_id] is first
    assert list(week.catalog)[3] is first
    XuanfengCloud(CloudConfig(scale=0.002)).run(week)
    # The replay builds no row: the users are still unbuilt.
    assert constructions == {CatalogFile: len(week.catalog), User: 0}
    assert week.users[-1] is week.users[len(week.users) - 1]
    assert constructions[User] == len(week.users)


@pytest.mark.parametrize("source", ["generated", "columnar", "faulted"])
def test_a_replay_and_its_reductions_build_no_row(constructions, tmp_path,
                                                  source):
    from pathlib import Path

    from repro.cloud import CloudConfig, XuanfengCloud
    from repro.faults import DEFAULT_POLICIES, FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator
    from repro.workload.records import CatalogFile, User
    from repro.workload.traceio import load_workload, save_workload
    week = WorkloadGenerator(WorkloadConfig(scale=0.002)).generate()
    injector = policies = None
    if source == "columnar":
        save_workload(week, tmp_path, trace_format="columnar")
        week = load_workload(tmp_path)
    elif source == "faulted":
        injector = FaultInjector(FaultPlan.from_file(
            Path(__file__).resolve().parents[1] / "examples"
            / "chaos_plan.json"))
        policies = DEFAULT_POLICIES
    result = XuanfengCloud(CloudConfig(scale=0.002), faults=injector,
                           policies=policies).run(week)
    # The bench's reductions, and those that read file or user fields.
    assert len(result.tasks) == len(week.requests)
    result.fetch_speed_cdf()
    result.attempt_speed_cdf()
    result.bandwidth_series(only_highly_popular=True)
    result.failure_ratio_by_class()
    result.e2e_speed_cdf()
    result.impeded_breakdown()
    result.table.flow_column("crossed")
    assert 0 < result.cache_hit_ratio < 1
    if injector is not None:
        assert injector.impacts > 0
    assert constructions == {CatalogFile: 0, User: 0}
    result.tasks[0]   # a task row is built from its file and user rows
    assert constructions[CatalogFile] and constructions[User]


def test_a_snapshot_keeps_its_week_as_later_weeks_evolve():
    from repro.workload.generator import WorkloadConfig
    from repro.workload.multiweek import MultiWeekGenerator
    generator = MultiWeekGenerator(WorkloadConfig(scale=0.001, seed=5))
    first = generator.next_week()
    files = [record.to_dict() for record in first.catalog]
    users = [user.to_dict() for user in first.users]
    requests = list(first.requests)
    second = generator.next_week()
    generator.next_week()
    assert [record.to_dict() for record in first.catalog] == files
    assert [user.to_dict() for user in first.users] == users
    assert list(first.requests) == requests
    assert first.catalog.demands().tolist() == \
        [row["weekly_demand"] for row in files]
    # The next week decayed the live demands and added files and users.
    assert len(second.catalog) > len(first.catalog)
    assert len(second.users) > len(first.users)
    assert second.catalog.demands()[:len(files)].tolist() != \
        first.catalog.demands().tolist()
