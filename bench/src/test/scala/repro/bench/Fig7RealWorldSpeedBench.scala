package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, Method, RealWorldExperiments => R}

/** Fig 7 (Section IV-B2): time per iteration on the real-world substitutes.
  * Paper shape: P-Tucker / P-Tucker-Approx fastest; wOPT O.O.M. on the two
  * large 4-order rating tensors but finishes on video/image.
  */
class Fig7RealWorldSpeedBench extends SparkSpec {

  test("Fig 7: speed on real-world substitutes — O.O.M. pattern matches the paper") {
    val report = R.fig7Speed(spark)
    Harness.emit(report.markdown)
    val wopt = report.rows.map(r => r.label -> r.ms(Method.Wopt)).toMap
    // wOPT: O.O.M. exactly on the two large rating tensors
    assert(wopt("Yahoo-music*").isEmpty)
    assert(wopt("MovieLens*").isEmpty)
    assert(wopt("Video (Wave)*").isDefined)
    assert(wopt("Image (Lena)*").isDefined)
    // P-Tucker finishes everywhere
    report.rows.foreach(r => assert(r.ms(Method.PTuckerDefault).isDefined, s"P-Tucker OOM on ${r.label}"))
  }
}
