package repro

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.TuckerKernels
import repro.linalg.DenseMatrix
import repro.tensor.{CoreTensor, SparseTensor}

/** Synthetic sparse-tensor generators (DESIGN.md §5 documents each
  * substitution).
  *
  * The paper evaluates on two proprietary/external rating tensors
  * (Yahoo-music, MovieLens), two sampled media tensors (video, image) and
  * uniform-random synthetic tensors. All are replaced by deterministic
  * generators at container scale: `uniform` mirrors the paper's synthetic
  * sweeps; `lowRank` plants a known Tucker structure (so accuracy claims are
  * checkable); `movieLensLike` plants genre/hour/year block structure (so
  * the Table V/VI discoveries are verifiable, not just narratable).
  */
object TensorGen {

  /** Uniform-random sparse tensor: random indices, Uniform(0,1) values —
    * exactly the paper's synthetic data protocol (Section IV-B1).
    */
  def uniform(spark: SparkSession, dims: Array[Int], nnz: Long, seed: Long = 11): SparseTensor = {
    val idxCols = dims.zipWithIndex.map { case (d, k) =>
      (rand(seed + k) * d).cast("int") as s"i$k"
    }
    val df = spark.range(nnz)
      .select(idxCols :+ (rand(seed + dims.length).as("value")): _*)
      .dropDuplicates((0 until dims.length).map(k => s"i$k"))
    SparseTensor(dims, df)
  }

  /** Plants a ground-truth Tucker model (factors, core ~ Uniform(0,1)) and
    * samples `nnz` observed cells of it, plus Gaussian noise. A rank-`ranks`
    * factorization can reach fit ≈ 1 on the noise-free version — the oracle
    * for every accuracy experiment.
    *
    * @param scaleTo if set, values are affinely mapped into [0, scaleTo]
    *                (the paper normalizes real data to [0,1]).
    */
  def lowRank(spark: SparkSession, dims: Array[Int], ranks: Array[Int], nnz: Long,
              noiseSd: Double = 0.0, seed: Long = 21,
              scaleTo: Option[Double] = None): SparseTensor = {
    require(dims.length == ranks.length)
    val order = dims.length
    val factors = Array.tabulate(order)(n => DenseMatrix.rand(dims(n), ranks(n), seed + 100 + n))
    val core = CoreTensor.rand(ranks, seed + 200)
    val bF = spark.sparkContext.broadcast(TuckerKernels.factorData(factors))
    val bC = spark.sparkContext.broadcast(TuckerKernels.coreCells(core))

    val idxCols = dims.zipWithIndex.map { case (d, k) =>
      (rand(seed + k) * d).cast("int") as s"i$k"
    }
    val idxDf = spark.range(nnz)
      .select(idxCols :+ randn(seed + 999).as("noise"): _*)
      .dropDuplicates((0 until order).map(k => s"i$k"))

    val rows = idxDf.rdd.map { r =>
      val idx = new Array[Int](order)
      var k = 0
      while (k < order) { idx(k) = r.getInt(k); k += 1 }
      val v = TuckerKernels.predict(idx, bF.value, bC.value)
      Row.fromSeq(idx.toSeq :+ (v + noiseSd * r.getDouble(order)))
    }
    var df = spark.createDataFrame(rows, SparseTensor.schema(order))
    scaleTo.foreach { hi =>
      val Row(lo: Double, hiV: Double) = df.agg(min("value"), max("value")).head
      val span = math.max(hiV - lo, 1e-12)
      df = df.withColumn("value", (col("value") - lit(lo)) / lit(span) * lit(hi))
    }
    SparseTensor(dims, df)
  }

  // ---------------------------------------------------------------------
  // Real-world substitutes (DESIGN.md §5)
  // ---------------------------------------------------------------------

  /** Genre labels used by the MovieLens-like block model. */
  val Genres: Array[String] = Array("Thriller", "Comedy", "Drama", "Action", "Romance", "SciFi")

  /** Preferred hours per genre (e.g. the paper's R1: drama at 8am, 4pm, 1am,
    * 9pm, 6pm). Used to plant — and later verify — Table-VI relations.
    */
  val GenreHours: Array[Array[Int]] = Array(
    Array(22, 23, 0, 1, 2),      // Thriller: late night
    Array(19, 20, 21, 12, 13),   // Comedy: evening + lunch
    Array(8, 16, 1, 21, 18),     // Drama: the paper's R1 hours
    Array(14, 15, 16, 17, 18),   // Action: afternoon
    Array(20, 21, 22, 23, 19),   // Romance: evening
    Array(0, 1, 2, 3, 23),       // SciFi: night
  )

  /** Preferred year offsets (0-based within the year mode) per genre. */
  val GenreYears: Array[Array[Int]] = Array(
    Array(0, 1, 2), Array(5, 6, 7), Array(10, 11, 12),
    Array(13, 14, 15), Array(16, 17, 18), Array(18, 19, 20),
  )

  /** Deterministic genre of movie `m` (contiguous blocks of `movies/|G|`). */
  def movieGenre(m: Int, movies: Int): Int =
    math.min(Genres.length - 1, m * Genres.length / movies)

  /** MovieLens-20M substitute: (user, movie, year, hour; rating) with planted
    * genre blocks, per-genre hour preferences and per-genre year preferences.
    * Ratings are in [0,1] like the paper's normalized data.
    */
  def movieLensLike(spark: SparkSession,
                    users: Int = 2000, movies: Int = 300, years: Int = 21, hours: Int = 24,
                    nnz: Long = 100000L, noiseSd: Double = 0.02, seed: Long = 31): SparseTensor = {
    val nGenres = Genres.length
    val bHours = spark.sparkContext.broadcast(GenreHours)
    val bYears = spark.sparkContext.broadcast(GenreYears)
    val dims = Array(users, movies, years, hours)

    val idxDf = spark.range(nnz).select(
      (rand(seed) * users).cast("int") as "i0",
      (rand(seed + 1) * movies).cast("int") as "i1",
      (rand(seed + 2) * years).cast("int") as "i2",
      (rand(seed + 3) * hours).cast("int") as "i3",
      randn(seed + 4) as "noise",
    ).dropDuplicates("i0", "i1", "i2", "i3")

    val rows = idxDf.rdd.map { r =>
      val u = r.getInt(0); val m = r.getInt(1); val y = r.getInt(2); val h = r.getInt(3)
      val g = movieGenre(m, movies)
      val userPref = u % nGenres                       // each user favours one genre
      val affinity = if (userPref == g) 1.0 else 0.15
      val hourPref = if (bHours.value(g).contains(h)) 1.0 else 0.15
      val yearPref = if (bYears.value(g).contains(y)) 1.0 else 0.15
      val v = 0.1 + 0.45 * affinity + 0.25 * hourPref + 0.2 * yearPref +
        noiseSd * r.getDouble(4)
      Row(u, m, y, h, math.min(1.0, math.max(0.0, v)))
    }
    SparseTensor(dims, spark.createDataFrame(rows, SparseTensor.schema(4)))
  }

  /** Yahoo-music substitute: 4-order planted low-rank rating tensor at
    * container scale (the original is 252M nonzeros of proprietary data).
    */
  def yahooLike(spark: SparkSession, nnz: Long = 100000L, seed: Long = 41): SparseTensor =
    lowRank(spark, dims = Array(3000, 2000, 50, 24), ranks = Array(4, 4, 4, 4),
      nnz = nnz, noiseSd = 0.05, seed = seed, scaleTo = Some(1.0))

  /** Sea-wave-video substitute: same dims as the paper's tensor, smooth
    * separable (hence genuinely low-rank) signal, 10%-sampled.
    */
  def videoLike(spark: SparkSession, nnz: Long = 20000L, seed: Long = 51): SparseTensor =
    smoothSampled(spark, Array(112, 160, 3, 32), nnz, seed)

  /** 'Lena'-image substitute: same dims, smooth low-rank signal, 10%-sampled. */
  def imageLike(spark: SparkSession, nnz: Long = 20000L, seed: Long = 61): SparseTensor =
    smoothSampled(spark, Array(256, 256, 3), nnz, seed)

  /** Sum of 3 separable smooth terms — an exactly rank-3 signal in [0,1]. */
  private def smoothSampled(spark: SparkSession, dims: Array[Int], nnz: Long,
                            seed: Long): SparseTensor = {
    val order = dims.length
    val idxCols = dims.zipWithIndex.map { case (d, k) =>
      (rand(seed + k) * d).cast("int") as s"i$k"
    }
    val idxDf = spark.range(nnz)
      .select(idxCols: _*)
      .dropDuplicates((0 until order).map(k => s"i$k"))
    val bDims = spark.sparkContext.broadcast(dims)
    val rows = idxDf.rdd.map { r =>
      val ds = bDims.value
      var v = 0.0
      var t = 1
      while (t <= 3) {
        var p = 1.0
        var k = 0
        while (k < ds.length) {
          val x = (r.getInt(k) + 1.0) / ds(k)
          p *= 0.5 + 0.5 * math.sin(t * math.Pi * x + 0.3 * t + 0.2 * k)
          k += 1
        }
        v += p / 3.0
        t += 1
      }
      Row.fromSeq((0 until ds.length).map(r.getInt) :+ v)
    }
    SparseTensor(dims, spark.createDataFrame(rows, SparseTensor.schema(order)))
  }
}
