"""Graphs derived from their parent by a change set, against the old route.

`pct` returns a step as one `ChangeSet` against its host, and the runner
derives H' from the host (`derive_graph`), trusting the host and checking
only the label sets the change introduces.  `old_route` is how the joint
step built D' and H' before: copy the host labeling, intersect the context
labels, glue the additions, and pass everything through the public
constructors.  Every step of the runs below must give the same H' both
ways, ids, labels and insertion order included, must delete exactly the
host ids outside D' and count D' in its report, and folding a step's
recorded change sets onto its host through the public constructors must
give its result.
"""

import pytest

from weakspan import (
    AttributedGraph,
    ChangeSet,
    Graph,
    HexGridSpec,
    LabelSet,
    apply_to_labelset,
    ca_oracle,
    cmd_hexca,
    cmd_run,
    encode_grid,
    fibonacci_system,
    hex_system,
    live_cells,
)
from weakspan import runner
from weakspan.attrgraphs import derive_graph
from weakspan.hexgrid import DEAD, LIVE, changed_live_cells, cell_id

from randgen import random_system

# random systems whose three pct steps both delete and add elements
CHURN_SEEDS = (115, 118, 131)


def old_route(gammas, names):
    """D' and H' of a coherent set, built the way the joint step built them
    before change sets: whole copies through the public constructors.
    Application c's additions are named ``names[c] + x``, primed."""
    host = gammas[0].host
    signature = host.graph.signature
    deleted = frozenset().union(*(g.record.deleted for g in gammas))
    labels = {x: label for x, label in host.labeling.items() if x not in deleted}
    for gamma in gammas:
        for x, (old, label) in gamma.record.relabelled.items():
            assert old == host.label(x) and label != old, x
            if x not in deleted:
                labels[x] = LabelSet(labels[x] & label)
    nodes = {n: s for n, s in host.graph.nodes.items() if n not in deleted}
    edges = {e: d for e, d in host.graph.edges.items() if e not in deleted}
    dprime = AttributedGraph(Graph(signature, nodes, edges), host.algebra, labels)
    labels, nodes, edges = dict(labels), dict(nodes), dict(edges)
    for c, gamma in enumerate(gammas):
        plan = gamma.rule.plan
        ids = {ry: gamma.required_image[y] for y, _ly, ry in plan.required}
        for x, sort, ends in plan.added:
            z = names[c] + x
            while z in labels:
                z += "'"
            ids[x] = z
            labels[z] = LabelSet()
            if ends is None:
                nodes[z] = sort
            else:
                edges[z] = (sort, ids[ends[0]], ids[ends[1]])
        for x, label in plan.written:
            labels[ids[x]] = LabelSet(labels[ids[x]] | apply_to_labelset(gamma.match.alpha, label))
    hprime = AttributedGraph(Graph(signature, nodes, edges), host.algebra, labels)
    return dprime, hprime


def fold(graph, changes):
    """``changes`` applied to ``graph`` through the public constructors, after
    checking that the change set describes a change of this graph."""
    assert changes.deleted <= graph.labeling.keys()
    for x, (old, new) in changes.relabelled.items():
        assert x not in changes.deleted and graph.label(x) == old and new != old
    assert not changes.added.keys() & (graph.labeling.keys() - changes.deleted)
    labels = {x: label for x, label in graph.labeling.items() if x not in changes.deleted}
    labels.update((x, new) for x, (_old, new) in changes.relabelled.items())
    nodes = {n: s for n, s in graph.graph.nodes.items() if n not in changes.deleted}
    edges = {e: d for e, d in graph.graph.edges.items() if e not in changes.deleted}
    for z, (sort, ends, label) in changes.added.items():
        if ends is None:
            nodes[z] = sort
        else:
            edges[z] = (sort, *ends)
        labels[z] = label
    return AttributedGraph(Graph(graph.graph.signature, nodes, edges), graph.algebra, labels)


def assert_same_graph(got, want):
    """Equal graphs with the same insertion order, which saved files follow."""
    assert list(got.graph.nodes.items()) == list(want.graph.nodes.items())
    assert list(got.graph.edges.items()) == list(want.graph.edges.items())
    assert list(got.labeling.items()) == list(want.labeling.items())
    assert all(type(label) is LabelSet for label in got.labeling.values())
    assert got == want


RUNS = [
    ("hex", lambda: hex_system(HexGridSpec(radius=6, seeds=((0, 0), (2, -1)))), 3),
    ("fib", fibonacci_system, 30),
    *((f"churn{seed}", lambda seed=seed: random_system(seed), 3) for seed in CHURN_SEEDS),
]


@pytest.mark.parametrize("mode", ["pct", "sequential"])
@pytest.mark.parametrize("name, make, steps", RUNS, ids=[name for name, _m, _s in RUNS])
def test_every_step_derives_what_the_old_route_builds(name, make, steps, mode, monkeypatch):
    recorded = []
    joint = runner.pct

    def recording(gammas, names):
        changes = joint(gammas, names)
        recorded.append((list(gammas), changes, names))
        return changes
    monkeypatch.setattr(runner, "pct", recording)
    run = cmd_run(make(), steps, mode)
    assert recorded
    dprime_counts = []
    for gammas, changes, names in recorded:
        host = gammas[0].host
        dprime, hprime = old_route(gammas, names)
        assert_same_graph(derive_graph(host, changes), hprime)
        assert changes.deleted == host.labeling.keys() - dprime.labeling.keys()
        assert_same_graph(fold(host, changes), hprime)
        dprime_counts.append(dprime.element_count())
    if mode == "pct":
        assert [report.dprime_elements for report in run.steps
                if not report.fixpoint] == dprime_counts
    applied = 0
    for before, after, report in zip(run.history, run.history[1:], run.steps):
        assert len(report.changes) == (0 if report.fixpoint else
                                       1 if mode == "pct" else report.applied)
        applied += len(report.changes)
        graph = before
        for changes in report.changes:
            graph = fold(graph, changes)
        assert_same_graph(graph, after)
    assert applied == len(recorded)
    if name.startswith("churn") and mode == "pct":
        assert any(c.deleted for r in run.steps for c in r.changes)
        assert any(c.added for r in run.steps for c in r.changes)


def test_fibonacci_change_sets_are_pinned():
    one, two, three, four = (LabelSet([n]) for n in (1, 2, 3, 4))
    joint = cmd_run(fibonacci_system(), 1, "pct").steps[0]
    assert joint.changes == [ChangeSet(relabelled={"x": (one, two), "y": (two, three)})]
    # shift relabels x and leaves sum's match stale; then (2, 2): shift
    # rewrites x with the value it had, and sum relabels y
    first, second = cmd_run(fibonacci_system(), 2, "sequential").steps
    assert first.changes == [ChangeSet(relabelled={"x": (one, two)})]
    assert second.changes == [ChangeSet(), ChangeSet(relabelled={"y": (two, four)})]
    assert second.changes[0].relabelled is ChangeSet().relabelled
    assert all(c.deleted is ChangeSet().deleted and c.added is ChangeSet().added
               for c in first.changes + second.changes)


def test_the_first_hex_generation_is_pinned():
    result = cmd_hexca(HexGridSpec(radius=4), 1)
    dead, live = LabelSet([DEAD]), LabelSet([LIVE])
    ring = {cell_id(cell): (dead, live) for cell in ((1, 0), (1, 1), (0, 1),
                                                     (-1, 0), (-1, -1), (0, -1))}
    assert result.steps[0].changes == [ChangeSet(relabelled=ring)]


@pytest.mark.parametrize("radius, seeds, generations", [
    (4, ((0, 0),), 3),
    (7, ((0, 0), (2, -1)), 3),
    (8, ((0, 0), (2, -1), (-1, -2)), 4),
    (8, ((2, 1),), 5),
    (6, ((0, 0), (1, 0)), 4),
])
def test_live_sets_follow_the_change_sets(radius, seeds, generations, monkeypatch):
    scans = []
    scan = runner.live_cells
    monkeypatch.setattr(runner, "live_cells", lambda graph: scans.append(graph) or scan(graph))
    grid = HexGridSpec(radius=radius, seeds=seeds)
    result = cmd_hexca(grid, generations)
    assert scans == [result.graphs[0]]
    assert result.live_sets == [live_cells(graph) for graph in result.graphs]
    assert result.live_sets == ca_oracle(grid, generations)
    assert result.live_counts == [len(cells) for cells in result.live_sets]


def test_live_sets_follow_deleted_and_added_cells():
    before = encode_grid(HexGridSpec(radius=2, seeds=((0, 0), (1, 0))))
    live = live_cells(before)
    cut = cell_id((1, 0))
    dropped = frozenset({cut, *(e for e, (_s, src, tgt) in before.graph.edges.items()
                                if cut in (src, tgt))})
    dead, alive = LabelSet([DEAD]), LabelSet([LIVE])
    changes = ChangeSet(
        deleted=dropped,
        relabelled={cell_id((0, 0)): (alive, dead), cell_id((0, 1)): (dead, alive),
                    cell_id((0, -1)): (dead, LabelSet([DEAD, LIVE]))},
        added={"c:5,5": ("cell", None, alive), "c:6,6": ("cell", None, dead),
               "link": ("dir0", ("c:5,5", "c:6,6"), alive)})
    after = derive_graph(before, changes)
    assert_same_graph(after, fold(before, changes))
    assert changed_live_cells(live, before, changes) == live_cells(after) == frozenset(
        {(0, 1), (0, -1), (5, 5)})


def test_deriving_checks_only_what_the_change_introduces():
    host = fibonacci_system().host
    unchanged = derive_graph(host, ChangeSet())
    assert unchanged.graph is host.graph and unchanged.labeling == host.labeling
    assert unchanged.labeling is not host.labeling
    relabelled = derive_graph(host, ChangeSet(relabelled={"y": (LabelSet([2]), LabelSet([5]))}))
    assert relabelled.graph is host.graph
    assert relabelled.label("x") is host.label("x") and relabelled.label("y") == LabelSet([5])
    grown = derive_graph(host, ChangeSet(deleted=frozenset({"e"}),
                                         added={"f": ("next", ("y", "x"), LabelSet([7]))}))
    assert grown.graph is not host.graph and grown.graph.edges == {"f": ("next", "y", "x")}


@pytest.mark.parametrize("changes, bad", [
    (ChangeSet(relabelled={"y": (LabelSet([2]), LabelSet([-1]))}), ("-1", "y")),
    (ChangeSet(relabelled={"y": (LabelSet([2]), LabelSet([-1])),
                           "x": (LabelSet([1]), LabelSet([-2]))}), ("-2", "x")),
    (ChangeSet(relabelled={"x": (LabelSet([1]), LabelSet([-3]))},
               added={"a": ("reg", None, LabelSet([-4]))}), ("-4", "a")),
    (ChangeSet(added={"z": ("reg", None, LabelSet([3])),
                      "f": ("next", ("x", "z"), LabelSet([-5]))}), ("-5", "f")),
])
def test_an_out_of_carrier_label_is_refused_as_the_constructor_refuses_it(changes, bad):
    host = fibonacci_system().host
    value, element = bad
    message = f"label {value} on element {element!r} is outside the carrier"
    with pytest.raises(ValueError) as public:
        fold(host, changes)
    assert str(public.value) == message
    with pytest.raises(ValueError) as derived:
        derive_graph(host, changes)
    assert str(derived.value) == message
