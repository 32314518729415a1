package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, ScalabilityExperiments => S}

/** Fig 9 (Section IV-C): P-Tucker vs P-Tucker-Approx per iteration. Paper
  * shape: Approx gets cheaper every iteration (|G| shrinks by p=0.2) and
  * eventually beats the default's per-iteration time, at a fit cost.
  */
class Fig9ApproxBench extends SparkSpec {

  test("Fig 9: Approx iterations get cheaper as the core shrinks; fit trades off") {
    val report = S.fig9Approx(spark, iters = 12)
    Harness.emit(report.markdown)
    val rows = report.rows
    val coreSizes = rows.map(_.approx.coreNnz)
    assert(coreSizes.head < 512 && coreSizes.last < coreSizes.head,
      s"core should shrink monotonically-ish: $coreSizes")
    val defLast3 = rows.takeRight(3).map(_.default.millis.toDouble).sum / 3
    val apxLast3 = rows.takeRight(3).map(_.approx.millis.toDouble).sum / 3
    assert(apxLast3 < defLast3,
      s"late Approx iterations should be cheaper: approx $apxLast3 vs default $defLast3")
    // default keeps a full core throughout
    val defFitLast = rows.last.default.fit
    val apxFitLast = rows.last.approx.fit
    assert(defFitLast >= apxFitLast - 0.02,
      s"default fit should not be materially below approx: $defFitLast vs $apxFitLast")
  }
}
