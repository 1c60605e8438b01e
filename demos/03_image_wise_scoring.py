"""Image-wise verdicts and severity on hand-built detection pairs.

Builds a fault-free and a corrupted view of the same three images and runs
the full scoring stack: confidence-independent Hungarian assignment,
SDC/DUE/benign verdicts, count deltas, and the blob occupancy coefficients
that measure how much space the corruption falsely occupies or vacates.
"""

from odfault.geometry import Box, Detection
from odfault.matching import CategoryPolicy, assign, fp_type_breakdown
from odfault.metrics import ImageEval, baseline_occupancy, rates, severity

WIDTH = HEIGHT = 100


def det(x1, y1, x2, y2, cat=0, conf=0.9):
    return Detection(Box(x1, y1, x2, y2), cat, conf)


def main():
    gts = [det(10, 10, 40, 40, cat=0, conf=1.0), det(60, 60, 90, 90, cat=1, conf=1.0)]

    images = {
        # corrupted view grows two ghost boxes
        "ghosts": ([det(10, 10, 40, 40, 0), det(60, 60, 90, 90, 1)],
                   [det(10, 10, 40, 40, 0), det(60, 60, 90, 90, 1),
                    det(0, 70, 25, 95, 2, 0.97), det(45, 5, 58, 20, 0, 0.99)]),
        # corrupted view loses an object and mislabels the other
        "miss+swap": ([det(10, 10, 40, 40, 0), det(60, 60, 90, 90, 1)],
                      [det(60, 60, 90, 90, 0, 0.8)]),
        # identical views
        "clean": ([det(10, 10, 40, 40, 0), det(60, 60, 90, 90, 1)],
                  [det(10, 10, 40, 40, 0), det(60, 60, 90, 90, 1)]),
    }

    evals = []
    for name, (orig, corr) in images.items():
        out_orig = assign(orig, gts)
        out_corr = assign(corr, gts)
        evaluation = ImageEval(name, (out_orig.tp, out_orig.fp, out_orig.fn),
                               (out_corr.tp, out_corr.fp, out_corr.fn))
        evals.append(evaluation)
        report = severity(evaluation, orig, corr, (WIDTH, HEIGHT))
        print(f"image {name!r}: verdict={report.verdict}")
        print(f"  counts orig tp/fp/fn = {evaluation.counts_orig}, "
              f"corr = {evaluation.counts_corr}")
        print(f"  delta_fp={report.delta_fp} delta_fn_n={report.delta_fn_n}")
        print(f"  falsely occupied {report.a_fp_occ:.1%} of the image, "
              f"vacated {report.a_fn_vac:.1%} of the original footprint")
        if report.verdict == "sdc":
            print(f"  false-positive causes: {fp_type_breakdown(corr, gts)}")

    sdc_rate, due_rate = rates(evals)
    print(f"\ncorpus rates: sdc={sdc_rate:.3f} due={due_rate:.3f}")

    print("\nrelaxing category matching (location-only safety view):")
    orig, corr = images["miss+swap"]
    strict = assign(corr, gts, policy=CategoryPolicy.strict())
    relaxed = assign(corr, gts, policy=CategoryPolicy.none())
    print(f"  strict: tp={strict.tp} fp={strict.fp} fn={strict.fn}")
    print(f"  none:   tp={relaxed.tp} fp={relaxed.fp} fn={relaxed.fn}")

    occ, vac = baseline_occupancy(images["clean"][0], gts, (WIDTH, HEIGHT))
    print(f"\nfault-free model imperfection: falsely occupied {occ:.2%}, vacated {vac:.2%}")


if __name__ == "__main__":
    main()
