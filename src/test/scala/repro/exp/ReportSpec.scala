package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** Report rendering and the experiment dispatcher; neither needs Spark. */
class ReportSpec extends AnyFunSuite {

  private val names = Seq("table1", "table3", "table4", "table5", "table6",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")

  test("markdown pins every cell format: ms, O.O.M., ratio and KiB") {
    val rows = Seq(("T=1", Some(412.4), 1.0, 0.46875), ("T=2", None, 4.699, 1899.2))
    val report = Report("Fig X — demo", Seq("Config", "ms/iter", "speed-up", "interm.", "KiB"), rows) {
      case (label, ms, speedup, kib) =>
        Seq(label, Report.ms(ms), Report.ratio(speedup), Report.kib(kib, 3), Report.kib(kib, 0))
    }
    assert(report.markdown ==
      """
        |### Fig X — demo
        |
        || Config | ms/iter | speed-up | interm. | KiB |
        || --- | --- | --- | --- | --- |
        || T=1 | 412 ms | 1.00x | 0.469 KiB | 0 KiB |
        || T=2 | O.O.M. | 4.70x | 1899.200 KiB | 1899 KiB |
        |""".stripMargin)
  }

  test("the dispatcher runs exactly the paper's tables and figures") {
    assert(Main.experiments.keys.toSeq == names)
  }

  test("an unknown or missing name fails with a usage message listing every name") {
    for (args <- Seq(Array("fig12"), Array.empty[String], Array("fig6", "fig7"))) {
      val e = intercept[IllegalArgumentException](Main.main(args))
      assert(e.getMessage.contains(names.mkString("<", "|", ">")), e.getMessage)
    }
  }
}
