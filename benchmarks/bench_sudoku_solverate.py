"""E-S3 — §VI-C: the SNN solver solves the evaluation puzzle set.

The paper runs the "Top 100 difficult" list; the substitute set is
generated with a uniqueness-preserving clue-removal procedure
(see DESIGN.md).  The benchmark solves a small deterministic subset so the
full suite stays fast; increase ``count`` for a fuller sweep.

The sweep executes on the batched runtime: all puzzles advance together
through :meth:`SNNSudokuSolver.solve_batch` on one stacked ``(B, 729)``
network, producing results bit-identical to one sequential
:meth:`SNNSudokuSolver.solve` per puzzle.
"""

from repro.harness import format_table, sudoku_solve_rate


def test_sudoku_snn_solve_rate(benchmark):
    result = benchmark.pedantic(
        lambda: sudoku_solve_rate(count=2, max_steps=8000, target_clues=34),
        rounds=1,
        iterations=1,
    )

    rows = [
        [i, clues, r.solved, r.steps, r.total_spikes]
        for i, (clues, r) in enumerate(zip(result["clue_counts"], result["results"]))
    ]
    print()
    print(
        format_table(
            ["Puzzle", "Clues", "Solved", "Steps [ms]", "Spikes"],
            rows,
            title="Sudoku SNN solver on the generated evaluation set",
        )
    )
    print(f"Solve rate: {result['solved']}/{result['num_puzzles']}  mean steps: {result['mean_steps']:.0f}")

    benchmark.extra_info["solve_rate"] = result["solve_rate"]
    # The WTA solver converges on the evaluated instances.
    assert result["solve_rate"] >= 0.5
