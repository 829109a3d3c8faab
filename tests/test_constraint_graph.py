"""Unit tests for constraint graphs: well-formedness, classification, ranks."""

import pytest

from repro.core import (
    Action,
    Assignment,
    Constraint,
    ConstraintGraph,
    ConvergenceBinding,
    GraphEdge,
    GraphNode,
    IllFormedGraphError,
    Predicate,
)


def node(name: str, *variables: str) -> GraphNode:
    return GraphNode(name, frozenset(variables))


def binding(constraint_name: str, reads: tuple[str, ...], writes: str) -> ConvergenceBinding:
    """A binding whose action reads ``reads`` and writes ``writes``.

    The constraint's support equals the read set, matching the paper's
    convention that the convergence action checks the constraint.
    """
    constraint = Constraint(
        name=constraint_name,
        predicate=Predicate(lambda s: True, name=constraint_name, support=reads),
    )
    action = Action(
        f"fix-{constraint_name}",
        Predicate(lambda s: False, name=f"not {constraint_name}", support=reads),
        Assignment({writes: 0}),
        reads=reads,
    )
    return ConvergenceBinding(constraint=constraint, action=action)


class TestFromBindings:
    def test_edge_derivation(self):
        nodes = [node("X", "x"), node("Y", "y")]
        graph = ConstraintGraph.from_bindings(nodes, [binding("c", ("x", "y"), "y")])
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert edge.source.name == "X"
        assert edge.target.name == "Y"
        assert not edge.is_self_loop

    def test_self_loop_when_reads_fit_target(self):
        nodes = [node("X", "x")]
        graph = ConstraintGraph.from_bindings(nodes, [binding("c", ("x",), "x")])
        assert graph.edges[0].is_self_loop

    def test_overlapping_labels_rejected(self):
        with pytest.raises(IllFormedGraphError, match="mutually exclusive"):
            ConstraintGraph.from_bindings(
                [node("A", "x"), node("B", "x")], []
            )

    def test_uncovered_variable_rejected(self):
        with pytest.raises(IllFormedGraphError, match="no node label covers"):
            ConstraintGraph.from_bindings(
                [node("X", "x")], [binding("c", ("x", "ghost"), "x")]
            )

    def test_reads_spanning_three_nodes_rejected(self):
        nodes = [node("X", "x"), node("Y", "y"), node("Z", "z")]
        with pytest.raises(IllFormedGraphError, match="span multiple nodes"):
            ConstraintGraph.from_bindings(nodes, [binding("c", ("x", "y", "z"), "z")])

    def test_writes_spanning_two_nodes_rejected(self):
        nodes = [node("X", "x"), node("Y", "y")]
        constraint = Constraint(
            name="c",
            predicate=Predicate(lambda s: True, name="c", support=("x",)),
        )
        action = Action(
            "wide",
            Predicate(lambda s: False, name="g", support=("x",)),
            Assignment({"x": 0, "y": 0}),
            reads=("x", "y"),
        )
        with pytest.raises(IllFormedGraphError, match="span multiple nodes"):
            ConstraintGraph.from_bindings(
                nodes, [ConvergenceBinding(constraint=constraint, action=action)]
            )


class TestClassification:
    def test_paper_example_is_out_tree(self):
        # Section 4: constraints x != y and x <= z, fixed by writing y and z.
        nodes = [node("X", "x"), node("Y", "y"), node("Z", "z")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("x!=y", ("x", "y"), "y"), binding("x<=z", ("x", "z"), "z")],
        )
        assert graph.is_out_tree()
        assert graph.classification() == "out-tree"
        assert graph.is_self_looping()  # out-trees are a special case

    def test_shared_target_not_out_tree(self):
        nodes = [node("X", "x"), node("Y", "y"), node("Z", "z")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("x", "y"), "x"), binding("c2", ("x", "z"), "x")],
        )
        assert not graph.is_out_tree()
        assert graph.is_self_looping()
        assert graph.classification() == "self-looping"

    def test_self_loop_disqualifies_out_tree(self):
        nodes = [node("X", "x"), node("Y", "y")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("x",), "x"), binding("c2", ("x", "y"), "y")],
        )
        assert not graph.is_out_tree()
        assert graph.is_self_looping()

    def test_two_cycle_is_cyclic(self):
        nodes = [node("X", "x"), node("Y", "y")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("x", "y"), "y"), binding("c2", ("x", "y"), "x")],
        )
        assert graph.has_proper_cycle()
        assert graph.classification() == "cyclic"
        with pytest.raises(IllFormedGraphError):
            graph.ranks()

    def test_disconnected_forest_not_out_tree(self):
        nodes = [node("A", "a"), node("B", "b"), node("C", "c"), node("D", "d")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("a", "b"), "b"), binding("c2", ("c", "d"), "d")],
        )
        assert not graph.is_weakly_connected()
        assert not graph.is_out_tree()

    def test_inactive_nodes_ignored_for_connectivity(self):
        nodes = [node("A", "a"), node("B", "b"), node("Unused", "u")]
        graph = ConstraintGraph.from_bindings(
            nodes, [binding("c", ("a", "b"), "b")]
        )
        assert graph.is_weakly_connected()
        assert graph.is_out_tree()
        assert [n.name for n in graph.active_nodes()] == ["A", "B"]


class TestRanks:
    def test_chain_ranks(self):
        nodes = [node("A", "a"), node("B", "b"), node("C", "c")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("a", "b"), "b"), binding("c2", ("b", "c"), "c")],
        )
        ranks = {n.name: r for n, r in graph.ranks().items()}
        assert ranks == {"A": 1, "B": 2, "C": 3}

    def test_self_loop_does_not_raise_rank(self):
        nodes = [node("A", "a"), node("B", "b")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("a", "b"), "b"), binding("c2", ("b",), "b")],
        )
        ranks = {n.name: r for n, r in graph.ranks().items()}
        assert ranks == {"A": 1, "B": 2}

    def test_diamond_rank_is_max_plus_one(self):
        nodes = [node("A", "a"), node("B", "b"), node("C", "c"), node("D", "d")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [
                binding("c1", ("a", "b"), "b"),
                binding("c2", ("a", "c"), "c"),
                binding("c3", ("b", "d"), "d"),
                binding("c4", ("c", "d"), "d"),
            ],
        )
        ranks = {n.name: r for n, r in graph.ranks().items()}
        assert ranks == {"A": 1, "B": 2, "C": 2, "D": 3}


class TestRefinements:
    def test_subgraph_by_bindings(self):
        nodes = [node("A", "a"), node("B", "b")]
        b1 = binding("c1", ("a", "b"), "b")
        b2 = binding("c2", ("a", "b"), "a")
        graph = ConstraintGraph.from_bindings(nodes, [b1, b2])
        assert graph.has_proper_cycle()
        sub = graph.subgraph([b1])
        assert len(sub.edges) == 1
        assert not sub.has_proper_cycle()

    def test_restricted_to_states_drops_satisfied_edges(self):
        from repro.core import State

        nodes = [node("X", "x"), node("Y", "y")]
        always = Constraint(
            name="always",
            predicate=Predicate(lambda s: True, name="always", support=("x", "y")),
        )
        action = Action(
            "fix-always",
            Predicate(lambda s: False, name="g", support=("x", "y")),
            Assignment({"y": 0}),
            reads=("x", "y"),
        )
        graph = ConstraintGraph.from_bindings(
            nodes, [ConvergenceBinding(constraint=always, action=action)]
        )
        refined = graph.restricted_to_states([State({"x": 0, "y": 0})])
        assert len(refined.edges) == 0


class TestClassificationEdgeCases:
    """Pin the classification of degenerate and borderline shapes."""

    def test_single_node_no_edges_is_self_looping(self):
        graph = ConstraintGraph.from_bindings([node("X", "x")], [])
        assert not graph.is_out_tree()  # no active nodes, no root
        assert graph.is_self_looping()
        assert graph.classification() == "self-looping"

    def test_single_node_self_loop_is_self_looping(self):
        graph = ConstraintGraph.from_bindings(
            [node("X", "x")], [binding("c", ("x",), "x")]
        )
        # The self-loop counts toward indegree, so this is not an
        # out-tree even though the underlying shape is a single node.
        assert not graph.is_out_tree()
        assert graph.classification() == "self-looping"

    def test_self_loop_mixed_into_out_tree_demotes_it(self):
        nodes = [node("X", "x"), node("Y", "y")]
        chain = binding("c1", ("x", "y"), "y")
        loop = binding("c2", ("y",), "y")
        assert ConstraintGraph.from_bindings(
            nodes, [chain]
        ).classification() == "out-tree"
        graph = ConstraintGraph.from_bindings(nodes, [chain, loop])
        assert graph.classification() == "self-looping"
        # Ranks stay defined: the self-loop is ignored by the rank order.
        ranks = {n.name: r for n, r in graph.ranks().items()}
        assert ranks == {"X": 1, "Y": 2}

    def test_disconnected_components_are_not_an_out_tree(self):
        nodes = [node("X", "x"), node("Y", "y"), node("Z", "z"), node("W", "w")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("x", "y"), "y"), binding("c2", ("z", "w"), "w")],
        )
        # Two acyclic trees: two roots, not weakly connected.
        assert not graph.is_weakly_connected()
        assert not graph.is_out_tree()
        assert graph.classification() == "self-looping"

    def test_multi_edge_pair_same_direction(self):
        nodes = [node("X", "x"), node("Y", "y")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("x", "y"), "y"), binding("c2", ("x", "y"), "y")],
        )
        # Parallel edges give the target indegree 2 — not an out-tree,
        # but still acyclic, so Theorem 2 applies.
        assert len(graph.edges) == 2
        assert graph.indegree(graph.edges[0].target) == 2
        assert graph.classification() == "self-looping"

    def test_multi_edge_pair_opposite_directions_is_cyclic(self):
        nodes = [node("X", "x"), node("Y", "y")]
        graph = ConstraintGraph.from_bindings(
            nodes,
            [binding("c1", ("x", "y"), "y"), binding("c2", ("x", "y"), "x")],
        )
        assert graph.has_proper_cycle()
        assert graph.classification() == "cyclic"
        with pytest.raises(IllFormedGraphError, match="self-looping"):
            graph.ranks()


class TestValidateMessages:
    """The well-formedness errors name the action, the edge, and the
    exact offending variable set (satellite of the staticcheck PR)."""

    def _edge(self, reads, writes, source, target):
        b = binding("c", reads, writes)
        return GraphEdge(source=source, target=target, binding=b)

    def test_write_escape_names_action_edge_and_variables(self):
        x, y = node("X", "x"), node("Y", "y")
        # The action writes x but the edge claims target Y.
        edge = self._edge(("x",), "x", x, y)
        with pytest.raises(
            IllFormedGraphError,
            match=r"action 'fix-c' on edge 'X' -> 'Y' writes \['x'\] outside "
                  r"its target node 'Y' \(label \['y'\]\)",
        ):
            ConstraintGraph([x, y], [edge])

    def test_read_escape_names_action_edge_and_variables(self):
        x, y, z = node("X", "x"), node("Y", "y"), node("Z", "z")
        edge = self._edge(("x", "z"), "x", y, x)
        with pytest.raises(
            IllFormedGraphError,
            match=r"action 'fix-c' on edge 'Y' -> 'X' reads \['z'\] outside "
                  r"the union of its nodes \(label \['x', 'y'\]\)",
        ):
            ConstraintGraph([x, y, z], [edge])

    def test_constraint_support_escape_names_constraint_and_edge(self):
        x, y, z = node("X", "x"), node("Y", "y"), node("Z", "z")
        constraint = Constraint(
            name="c",
            predicate=Predicate(lambda s: True, name="c", support=("x", "z")),
        )
        action = Action(
            "fix-c",
            Predicate(lambda s: False, name="g", support=("x",)),
            Assignment({"x": 0}),
            reads=("x",),
        )
        # The constraint consults z, but the edge Y -> X does not cover it.
        bad_edge = GraphEdge(
            source=y, target=x,
            binding=ConvergenceBinding(constraint=constraint, action=action),
        )
        with pytest.raises(
            IllFormedGraphError,
            match=r"constraint 'c' on edge 'Y' -> 'X' reads \['z'\] outside "
                  r"the union of its nodes \(label \['x', 'y'\]\)",
        ):
            ConstraintGraph([x, y, z], [bad_edge])
        # The matching placement (Z -> X covers z) is accepted.
        good_edge = GraphEdge(
            source=z, target=x,
            binding=ConvergenceBinding(constraint=constraint, action=action),
        )
        assert len(ConstraintGraph([x, y, z], [good_edge]).edges) == 1


class TestDeterministicMessages:
    """Errors naming a variable or node set pick it deterministically.

    Set iteration order varies with hash seeding, so every error path
    must sort before choosing which variable to name — the same
    determinism bar the lint report meets.
    """

    def test_overlap_error_names_lexicographically_first_variable(self):
        first = node("N1", "p", "q", "z", "m", "a")
        second = node("N2", "p", "q", "z", "m", "a")
        with pytest.raises(
            IllFormedGraphError,
            match=r"variable 'a' appears in the labels of both 'N1' and 'N2'",
        ):
            ConstraintGraph.from_bindings([first, second], [])

    def test_uncovered_error_names_lexicographically_first_variable(self):
        # Neither write is covered; the error must name 'u', not
        # whichever of {u, v} the set yields first.
        b = binding("c", ("u", "v"), "u")
        b = ConvergenceBinding(
            constraint=b.constraint,
            action=Action(
                "fix-c",
                b.action.guard,
                Assignment({"v": 0, "u": 0}),
                reads=("u", "v"),
            ),
        )
        with pytest.raises(
            IllFormedGraphError,
            match=r"action 'fix-c' writes variable 'u' which no node label "
                  r"covers",
        ):
            ConstraintGraph.from_bindings([node("X", "x")], [b])

    def test_span_error_lists_nodes_sorted(self):
        b = binding("c", ("u", "v"), "u")
        b = ConvergenceBinding(
            constraint=b.constraint,
            action=Action(
                "fix-c",
                b.action.guard,
                Assignment({"v": 0, "u": 0}),
                reads=("u", "v"),
            ),
        )
        with pytest.raises(
            IllFormedGraphError,
            match=r"writes span multiple nodes \['U', 'V'\]",
        ):
            ConstraintGraph.from_bindings(
                [node("V", "v"), node("U", "u")], [b]
            )


class TestEdgeIndex:
    @pytest.mark.parametrize(
        "name",
        ("diffusing-chain", "diffusing-star", "coloring-chain", "leader-election-star"),
    )
    def test_queries_match_an_edge_scan(self, name):
        from repro.protocols.library import CASES

        graph = CASES[name].build_design(4).graph
        for node in graph.nodes:
            incoming = [edge for edge in graph.edges if edge.target == node]
            outgoing = [edge for edge in graph.edges if edge.source == node]
            assert graph.incoming(node) == incoming
            assert graph.outgoing(node) == outgoing
            assert graph.indegree(node) == len(incoming)

    def test_query_results_are_fresh_lists(self):
        from repro.protocols.library import CASES

        graph = CASES["diffusing-star"].build_design(3).graph
        hub = graph.edges[0].source
        graph.outgoing(hub).clear()
        assert graph.outgoing(hub)
