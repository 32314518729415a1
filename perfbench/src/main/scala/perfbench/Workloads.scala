package perfbench

import org.apache.spark.sql.SparkSession
import repro.TensorGen
import repro.core.PTuckerVariant
import repro.tensor.SparseTensor

/** One benchmark workload: a generated tensor (from the run's seed) and the
  * P-Tucker variant, ranks and fixed iteration count fitted to it.
  *
  * @param fitFloor lowest acceptable train fit; only the planted tensor,
  *                 whose true rank is known, has one
  */
final case class Workload(name: String,
                          variant: PTuckerVariant,
                          ranks: Array[Int],
                          iters: Int,
                          generate: (SparkSession, Long) => SparseTensor,
                          fitFloor: Option[Double] = None) {
  def order: Int = ranks.length
}

object Workloads {

  val names: Seq[String] = Seq("planted-n3", "movielens-n4-cache", "approx-n3-j8")

  /** `toy` shrinks every workload to a few seconds of total work; it keeps
    * the variant, order and code path and exists for the benchmark's own test.
    */
  def apply(name: String, toy: Boolean): Workload = name match {
    // Default variant in the paper's main regime (Fig 6c/10): the δ kernel
    // dominates the iteration, and the planted rank makes accuracy checkable.
    // 40 entries per row against J = 5 keep the test RMSE steady from seed to
    // seed; at I = 10⁴ (4 entries per row) it varied by 11-35 % between seeds.
    case "planted-n3" =>
      val (dim, nnz) = if (toy) (300, 6000L) else (1000, 40000L)
      Workload(name, PTuckerVariant.Default, Array(5, 5, 5), iters = if (toy) 2 else 3,
        (spark, seed) => TensorGen.lowRank(spark, Array(dim, dim, dim), Array(5, 5, 5),
          nnz, noiseSd = 0.5, seed = seed),
        fitFloor = Some(if (toy) 0.5 else 0.9))

    // Cache variant: the only workload that builds and rewrites a persisted
    // table (Pres, |Ω|·J^N doubles) and runs 2N+1 jobs per iteration; modes 3
    // and 4 have 21 and 24 rows, the paper's hot-row (skew) case.
    case "movielens-n4-cache" =>
      val (users, movies, nnz) = if (toy) (200, 60, 4000L) else (2000, 300, 15000L)
      Workload(name, PTuckerVariant.Cache, Array(4, 4, 4, 4), iters = if (toy) 2 else 3,
        (spark, seed) => TensorGen.movieLensLike(spark, users = users, movies = movies,
          nnz = nnz, seed = seed))

    // Approx variant on the Fig 9 protocol: |G| starts at J^N = 512 and loses
    // 20 % per iteration, so late iterations are bound by per-job overhead;
    // the only workload with the R(β) pass. 150 entries per row against J = 8
    // keep the truncated fit within about 5 % from seed to seed; at 50 per row
    // it varied by 13 %.
    case "approx-n3-j8" =>
      val (dim, nnz) = if (toy) (100, 4000L) else (200, 30000L)
      val j = if (toy) 4 else 8
      Workload(name, PTuckerVariant.Approx, Array(j, j, j), iters = if (toy) 2 else 6,
        (spark, seed) => TensorGen.uniform(spark, Array(dim, dim, dim), nnz, seed = seed))

    case other =>
      throw new IllegalArgumentException(
        s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
  }
}
