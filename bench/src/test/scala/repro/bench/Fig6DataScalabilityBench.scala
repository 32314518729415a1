package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, Method, Report, TimeRow, ScalabilityExperiments => S}

/** Fig 6 (Section IV-B): data scalability vs order / dimensionality / |Ω| /
  * rank. Paper shape: P-Tucker fastest throughout; Tucker-wOPT O.O.M. on
  * everything beyond the smallest configs; the others finish but trail.
  */
class Fig6DataScalabilityBench extends SparkSpec {

  /** Emits the report and returns each method's ms/iter column. */
  private def columns(report: Report[TimeRow]): Method => Seq[Option[Double]] = {
    Harness.emit(report.markdown)
    m => report.rows.map(_.ms(m))
  }

  test("Fig 6(a): order sweep — wOPT hits O.O.M. at high order, P-Tucker always finishes") {
    val col = columns(S.fig6Order(spark))
    assert(col(Method.PTuckerDefault).forall(_.isDefined))
    assert(col(Method.Wopt).last.isEmpty, "wOPT should O.O.M. at the largest order")
    assert(col(Method.Wopt).head.isDefined, "wOPT should still run at N=3")
  }

  test("Fig 6(b): dimensionality sweep — wOPT O.O.M. beyond smallest, sparse methods scale") {
    val col = columns(S.fig6Dim(spark))
    for (m <- Seq(Method.PTuckerDefault, Method.SHot, Method.Csf))
      assert(col(m).forall(_.isDefined), s"${m.name} should finish all dims")
    assert(col(Method.Wopt).drop(1).forall(_.isEmpty))
  }

  test("Fig 6(c): |Ω| sweep — P-Tucker scales near-linearly in the nonzeros") {
    val col = columns(S.fig6Nnz(spark))
    val pt = col(Method.PTuckerDefault).flatten
    assert(pt.size == 3)
    // 100x more nonzeros must not cost more than ~200x (near-linear with
    // fixed per-job overhead at the small end)
    assert(pt.last / pt.head < 200.0, s"superlinear: $pt")
    assert(col(Method.Wopt).forall(_.isEmpty), "wOPT O.O.M. at I=10^4 (dense)")
  }

  test("Fig 6(d): rank sweep — all sparse methods finish every rank") {
    val col = columns(S.fig6Rank(spark))
    for (m <- Seq(Method.PTuckerDefault, Method.SHot, Method.Csf))
      assert(col(m).forall(_.isDefined), s"${m.name} should finish all ranks")
    // cost grows with J for P-Tucker (J^N term). Generous slack: at this
    // sweep size the fixed job overhead + JIT noise is a large fraction of
    // each point; the strict J-scaling ratio is asserted compute-bound in
    // Table3ComplexityBench instead.
    val pt = col(Method.PTuckerDefault).flatten
    assert(pt.last > 0.6 * pt.head, s"rank growth wildly inverted: $pt")
  }
}
