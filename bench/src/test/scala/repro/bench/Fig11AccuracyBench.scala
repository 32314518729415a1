package repro.bench

import repro.SparkSpec
import repro.exp.{Harness, Method, RealWorldExperiments => R}

/** Fig 11 (Section IV-E): accuracy on the real-world substitutes. Paper
  * shape: P-Tucker 1.4-4.8x lower reconstruction error and 1.4-4.3x lower
  * test RMSE than the zero-filled methods (S-HOT / CSF); Approx similar or
  * better RMSE than default; wOPT accurate where it fits.
  */
class Fig11AccuracyBench extends SparkSpec {

  test("Fig 11: P-Tucker beats the zero-filled methods on every dataset") {
    val report = R.fig11Accuracy(spark)
    Harness.emit(report.markdown)

    val byKey = report.rows.map(r => (r.dataset, r.method) -> r.testRmse).toMap
    def rmse(ds: String, m: Method): Option[Double] = byKey((ds, m))
    for (ds <- Seq("Yahoo-music*", "MovieLens*", "Video (Wave)*", "Image (Lena)*")) {
      val pt = rmse(ds, Method.PTuckerDefault).get
      for (zf <- Seq(Method.SHot, Method.Csf)) {
        val z = rmse(ds, zf).get
        assert(pt < z, s"$ds: P-Tucker RMSE $pt should beat ${zf.name} $z")
      }
    }
    // paper: the zero-filled gap is large (1.4x+) on the rating tensors
    for (ds <- Seq("Yahoo-music*", "MovieLens*")) {
      val pt = rmse(ds, Method.PTuckerDefault).get
      val z = rmse(ds, Method.SHot).get
      assert(z / pt > 1.4, s"$ds: expected >=1.4x RMSE gap, got ${z / pt}")
    }
    // wOPT: O.O.M. on the big rating tensors, accurate where it runs
    assert(rmse("Yahoo-music*", Method.Wopt).isEmpty)
    assert(rmse("MovieLens*", Method.Wopt).isEmpty)
    for (ds <- Seq("Video (Wave)*", "Image (Lena)*")) {
      val w = rmse(ds, Method.Wopt).get
      val z = rmse(ds, Method.SHot).get
      assert(w < z, s"$ds: wOPT (observed-only) should beat zero-filled: $w vs $z")
    }
  }
}
