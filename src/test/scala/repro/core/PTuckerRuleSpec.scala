package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.DenseMatrix
import repro.tensor.{CoreEntry, CoreTensor}

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._

/** Verifies the Eq. (10)-(13) kernels against straight-from-the-definition
  * reference implementations and a numerical argmin check (Theorem 1).
  * Driver-side only — no Spark needed at this altitude.
  */
class PTuckerRuleSpec extends AnyFunSuite {

  private val dims = Array(4, 5, 3)
  private val ranks = Array(2, 3, 2)
  private val seed = 13L
  private val factors = Array.tabulate(3)(n => DenseMatrix.rand(dims(n), ranks(n), seed + n))
  private val core = CoreTensor.rand(ranks, seed + 100)
  private val fd = TuckerKernels.factorData(factors)
  private val cc = TuckerKernels.coreCells(core)
  private val tree = CoreTree(core)

  private val rng = new scala.util.Random(7)
  private val entries: Seq[(Array[Int], Double)] = (0 until 40).map { _ =>
    (Array(rng.nextInt(dims(0)), rng.nextInt(dims(1)), rng.nextInt(dims(2))), rng.nextDouble())
  }

  /** Eq. (13) literally: δ(j) = Σ_{β: β_n=j} G_β ∏_{k≠n} a^(k)_{i_k β_k}. */
  private def refDelta(idx: Array[Int], n: Int): Array[Double] = {
    val out = new Array[Double](ranks(n))
    for (e <- core.entries) {
      var p = e.value
      for (k <- 0 until 3 if k != n) p *= factors(k)(idx(k), e.idx(k))
      out(e.idx(n)) += p
    }
    out
  }

  /** Eq. (5) literally. */
  private def refPredict(idx: Array[Int]): Double =
    core.entries.map { e =>
      e.value * (0 until 3).map(k => factors(k)(idx(k), e.idx(k))).product
    }.sum

  test("the δ kernel matches the Eq. (13) reference for every entry and mode") {
    for ((idx, _) <- entries; n <- 0 until 3) {
      val got = tree.delta(idx, n, fd)
      val want = refDelta(idx, n)
      assert(got.zip(want).forall { case (a, b) => math.abs(a - b) < 1e-12 },
        s"delta mismatch at ${idx.toSeq} mode $n")
    }
  }

  test("computePres matches G_β · ∏_k a^(k)") {
    for ((idx, _) <- entries.take(10)) {
      val got = PTucker.computePres(idx, fd, tree, tree.scratch())
      core.entries.zipWithIndex.foreach { case (e, b) =>
        val want = e.value * (0 until 3).map(k => factors(k)(idx(k), e.idx(k))).product
        assert(math.abs(got(b) - want) < 1e-12)
      }
    }
  }

  test("sum of Pres over cells equals the Eq. (5) prediction") {
    for ((idx, _) <- entries.take(10)) {
      val pres = PTucker.computePres(idx, fd, tree, tree.scratch())
      assert(math.abs(pres.sum - refPredict(idx)) < 1e-10)
    }
  }

  test("deltaFromPres reproduces the δ kernel when no factor entry is zero") {
    for ((idx, _) <- entries.take(10); n <- 0 until 3) {
      val pres = PTucker.computePres(idx, fd, tree, tree.scratch())
      val viaCache = PTucker.deltaFromPres(idx, pres, n, ranks(n), fd, cc, tree)
      val direct = tree.delta(idx, n, fd)
      assert(viaCache.zip(direct).forall { case (a, b) => math.abs(a - b) < 1e-9 })
    }
  }

  test("deltaFromPres falls back to recomputation at a zero factor entry") {
    val fzero = factors.map(_.copy)
    fzero(0)(2, 1) = 0.0
    val fdz = TuckerKernels.factorData(fzero)
    val idx = Array(2, 1, 0)
    val pres = PTucker.computePres(idx, fdz, tree, tree.scratch()) // some cells are exactly 0
    val viaCache = PTucker.deltaFromPres(idx, pres, 0, ranks(0), fdz, cc, tree)
    val direct = refDelta(idx, 0) // δ^(0) does not read A^(0), the only factor zeroed
    assert(viaCache.zip(direct).forall { case (a, b) => math.abs(a - b) < 1e-9 })
  }

  test("patchPres: after a factor update, patched Pres equals fresh recomputation") {
    val updated = factors.map(_.copy)
    updated(1) = DenseMatrix.rand(dims(1), ranks(1), 999)
    val fdNew = TuckerKernels.factorData(updated)
    for ((idx, _) <- entries.take(10)) {
      val old = PTucker.computePres(idx, fd, tree, tree.scratch())
      val patched = PTucker.patchPres(idx, old, 1, fd(1), cc, fdNew, tree)
      val fresh = PTucker.computePres(idx, fdNew, tree, tree.scratch())
      assert(patched.zip(fresh).forall { case (a, b) => math.abs(a - b) < 1e-9 })
    }
  }

  test("accumulate builds B = Σ δδᵀ and c = Σ x·δ") {
    val jn = ranks(0)
    val acc = new Array[Double](jn * jn + jn)
    val mine = entries.filter(_._1(0) == 1)
    mine.foreach { case (idx, x) =>
      PTucker.accumulate(acc, tree.delta(idx, 0, fd), x)
    }
    PTucker.mirror(acc, jn) // accumulate fills B's upper triangle
    val bWant = Array.ofDim[Double](jn, jn)
    val cWant = new Array[Double](jn)
    mine.foreach { case (idx, x) =>
      val d = refDelta(idx, 0)
      for (a <- 0 until jn; b <- 0 until jn) bWant(a)(b) += d(a) * d(b)
      for (a <- 0 until jn) cWant(a) += x * d(a)
    }
    for (a <- 0 until jn; b <- 0 until jn)
      assert(math.abs(acc(a * jn + b) - bWant(a)(b)) < 1e-10)
    for (a <- 0 until jn) assert(math.abs(acc(jn * jn + a) - cWant(a)) < 1e-10)
  }

  test("mergeAcc adds componentwise") {
    val x = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    val y = Array(10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
    val m = PTucker.mergeAcc(x, y)
    assert(m.toSeq == Seq(11.0, 22.0, 33.0, 44.0, 55.0, 66.0))
  }

  test("solveRow solves row·(B+λI) = c") {
    val jn = 3
    val rnd = new scala.util.Random(3)
    val bHalf = DenseMatrix.rand(jn, jn, 4)
    val bSym = bHalf.gram // symmetric PSD like a real B
    val c = Array.fill(jn)(rnd.nextDouble())
    val lambda = 0.05
    val row = PTucker.solveRow(bSym.data ++ c, jn, lambda)
    // check row · (B + λI) == c
    for (j <- 0 until jn) {
      val got = (0 until jn).map(i => row(i) * (bSym(i, j) + (if (i == j) lambda else 0.0))).sum
      assert(math.abs(got - c(j)) < 1e-9)
    }
  }

  test("Theorem 1: the updated row is a local (hence global, convex) minimum of the loss") {
    val lambda = 0.01
    val n = 0
    val i0 = 1
    val jn = ranks(n)
    val mine = entries.filter(_._1(0) == i0)
    assert(mine.nonEmpty)
    val acc = new Array[Double](jn * jn + jn)
    mine.foreach { case (idx, x) =>
      PTucker.accumulate(acc, tree.delta(idx, n, fd), x)
    }
    val row = PTucker.solveRow(acc, jn, lambda)

    // Loss restricted to this row (other rows' terms are constants):
    def loss(r: Array[Double]): Double = {
      val f2 = factors.map(_.copy)
      f2(n).setRow(i0, r)
      val sse = mine.map { case (idx, x) =>
        val pred = core.entries.map { e =>
          e.value * (0 until 3).map(k => f2(k)(idx(k), e.idx(k))).product
        }.sum
        val d = x - pred
        d * d
      }.sum
      sse + lambda * r.map(v => v * v).sum
    }

    val base = loss(row)
    val eps = 1e-4
    for (j <- 0 until jn; s <- Seq(-1.0, 1.0)) {
      val pert = row.clone(); pert(j) += s * eps
      assert(loss(pert) >= base - 1e-12,
        s"perturbing coord $j by ${s * eps} decreased the loss")
    }
    // gradient ≈ 0 via central differences
    for (j <- 0 until jn) {
      val p = row.clone(); p(j) += eps
      val m = row.clone(); m(j) -= eps
      val g = (loss(p) - loss(m)) / (2 * eps)
      assert(math.abs(g) < 1e-6, s"gradient at coord $j is $g")
    }
  }

  test("CoreTree rejects cells out of DenseTensor.indices order, repeated or out of range") {
    val cells = core.entries
    val swapped = cells.clone()
    swapped(3) = cells(4); swapped(4) = cells(3)
    val permuted = new scala.util.Random(5).shuffle(cells.toSeq).toArray
    val repeated = cells.take(5) :+ cells(4)
    val outside = Array(CoreEntry(Array(0, 0, 0), 1.0), CoreEntry(Array(0, 3, 0), 1.0))
    for ((bad, want) <- Seq(swapped -> "core cell 4", permuted -> "ascending order",
                            repeated -> "core cell 5", outside -> "outside [0, 3) in mode 1")) {
      val e = intercept[IllegalArgumentException](CoreTree(new CoreTensor(ranks, bad)))
      assert(e.getMessage.contains(want), e.getMessage)
    }
    // any subset in order is accepted: what truncation produces
    CoreTree(new CoreTensor(ranks, cells.zipWithIndex.collect { case (c, b) if b % 3 != 1 => c }))
  }

  test("sortedBlock orders a block by the mode index, then the other indices, ties in input order") {
    val rnd = new scala.util.Random(11)
    val order = 3
    val dim = 6
    // few distinct other indices, so runs are long (merge path) and hold duplicates
    val es = Array.fill(300)((Array(rnd.nextInt(dim), rnd.nextInt(3), rnd.nextInt(4)), rnd.nextDouble()))
    for (n <- 0 until order) {
      val blk = RowBlocks.sortedBlock(n, dim, order, es.flatMap(_._1), es.map(_._2), _ == 2)
      val key: ((Array[Int], Double)) => Seq[Int] = e => e._1(n) +: (0 until order).filter(_ != n).map(e._1)
      val want = es.sortBy(key)(Ordering.Implicits.seqOrdering) // stable
      assert(blk.values.toSeq == want.map(_._2).toSeq, s"mode $n")
      assert(blk.idx.toSeq == want.flatMap(_._1).toSeq, s"mode $n")
      assert(blk.parts.toSeq == (if (es.exists(_._1(n) == 2)) Seq(2) else Nil))
    }
  }

  test("every task class handed to Jobs.run is named, so Spark's closure cleaner skips it") {
    // The cleaner parses the declaring class file of a synthetic class (an
    // indy lambda) or of a `$anonfun$` class on every job. A lambda passed
    // where a PartitionTask is expected compiles to a `$anonfun$` class in
    // its package, which this scan finds.
    val base = classOf[PartitionTask[_, _]]
    val root = Paths.get(base.getProtectionDomain.getCodeSource.getLocation.toURI)
    assert(Files.isDirectory(root), s"$root: the scan reads compiled classes from a directory")
    val tasks = Seq("repro.core", "repro.baselines").flatMap { pkg =>
      val files = Files.list(root.resolve(pkg.replace('.', '/')))
      try files.iterator.asScala.map(_.getFileName.toString).filter(_.endsWith(".class"))
        .map(f => Class.forName(pkg + "." + f.stripSuffix(".class"), false, base.getClassLoader))
        .filter(c => c != base && base.isAssignableFrom(c)).map(_.getName).toList
      finally files.close()
    }.toSet
    val used = Set("core.Jobs$Count", "core.Jobs$Collect", "core.PTucker$SolveBlocks",
      "core.TuckerKernels$SquaredErrors", "baselines.HooiCommon$Scan", "baselines.HooiCommon$CoreSums").map("repro." + _)
    assert(tasks == used, s"found ${tasks.mkString(", ")}")
    tasks.foreach { name =>
      val c = Class.forName(name, false, base.getClassLoader)
      assert(!c.isSynthetic && !name.contains("$anonfun$"), s"$name is a lambda")
    }
  }

  test("intermediateDoubles follows the Table III models") {
    val cfg = PTuckerConfig(ranks = Array(3, 3, 3))
    val j = 3L; val coreSize = 27L; val t = 4; val nnz = 1000L
    val perTask = t * (2 * j * j + 2 * j)
    assert(PTucker.intermediateDoubles(cfg, t, nnz) == perTask)
    assert(PTucker.intermediateDoubles(cfg.copy(variant = PTuckerVariant.Cache), t, nnz)
      == nnz * coreSize + perTask)
    assert(PTucker.intermediateDoubles(cfg.copy(variant = PTuckerVariant.Approx), t, nnz)
      == coreSize + perTask)
  }
}
