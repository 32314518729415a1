package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.linalg.DenseMatrix
import repro.tensor.{CoreEntry, CoreTensor}

/** ScalaCheck properties of the kernels: for random orders, ranks and
  * truncated cores (the surviving-cell subsets Approx produces), the core
  * tree's δ and per-cell products, the cell-list prediction and both Cache
  * fallbacks equal the literal Eq. (5)/(13) definitions.
  */
object TuckerKernelProps extends Properties("TuckerKernels") {

  /** Random factors, a truncated core, one entry index and one factor
    * entry `(zeroMode, idx(zeroMode), zeroCol)` that a surviving cell uses.
    */
  private final case class Case(ranks: Array[Int], factors: Array[DenseMatrix],
                                core: CoreTensor, idx: Array[Int],
                                zeroMode: Int, zeroCol: Int, seed: Long) {
    def order: Int = ranks.length
  }

  /** A case of order 2-5 with ranks 1-4, whose core keeps all but `drop(|G|)`
    * of its cells, chosen at random.
    */
  private def caseOf(drop: Int => Gen[Int]): Gen[Case] = for {
    order <- Gen.choose(2, 5)
    ranks <- Gen.listOfN(order, Gen.choose(1, 4))
    extra <- Gen.listOfN(order, Gen.choose(0, 3))
    seed <- Gen.choose(0L, 10000L)
    dropped <- drop(ranks.product)
  } yield {
    val rng = new scala.util.Random(seed)
    val rs = ranks.toArray
    val dims = rs.zip(extra).map { case (j, e) => j + e }
    val factors = Array.tabulate(order)(k => DenseMatrix.rand(dims(k), rs(k), seed + k))
    val full = CoreTensor.rand(rs, seed + 100)
    val core = full.truncate(Array.fill(full.nnz)(rng.nextDouble()), dropped)
    val idx = dims.map(rng.nextInt)
    val zeroMode = rng.nextInt(order)
    val zeroCol = core.entries(rng.nextInt(core.nnz)).idx(zeroMode)
    Case(rs, factors, core, idx, zeroMode, zeroCol, seed)
  }

  private val caseGen: Gen[Case] = caseOf(size => Gen.choose(0, size - 1))

  /** Random truncation, plus the two ends: the full core and |G| = 1. */
  private val treeCaseGen: Gen[Case] =
    caseOf(size => Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(size - 1), 3 -> Gen.choose(0, size - 1)))

  /** `G_β ∏_{k≠skip} a^(k)_{i_k β_k}` written out. */
  private def term(c: Case, f: Array[DenseMatrix], cell: CoreEntry, skip: Int): Double =
    cell.value * (0 until c.order).filter(_ != skip).map(k => f(k)(c.idx(k), cell.idx(k))).product

  /** Eq. (13). */
  private def refDelta(c: Case, f: Array[DenseMatrix], n: Int): Array[Double] = {
    val out = new Array[Double](c.ranks(n))
    c.core.entries.foreach(e => out(e.idx(n)) += term(c, f, e, n))
    out
  }

  private def refPres(c: Case, f: Array[DenseMatrix]): Array[Double] =
    c.core.entries.map(e => term(c, f, e, -1))

  private def close(got: Array[Double], want: Array[Double]): Boolean =
    got.length == want.length &&
      got.zip(want).forall { case (a, b) => math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b)) }

  /** The case's factors with the chosen entry set to exactly zero. */
  private def zeroed(c: Case): Array[DenseMatrix] = {
    val f = c.factors.map(_.copy)
    f(c.zeroMode)(c.idx(c.zeroMode), c.zeroCol) = 0.0
    f
  }

  property("computeDelta equals Eq. (13) in every mode") =
    Prop.forAll(caseGen) { c =>
      val fd = TuckerKernels.factorData(c.factors)
      val tree = CoreTree(c.core)
      (0 until c.order).forall { n =>
        close(PTucker.computeDelta(c.idx, n, c.ranks(n), fd, tree, tree.scratch()), refDelta(c, c.factors, n))
      }
    }

  property("computePres equals G_β ∏_k a^(k); predict equals its sum (Eq. 5)") =
    Prop.forAll(caseGen) { c =>
      val fd = TuckerKernels.factorData(c.factors)
      val cc = TuckerKernels.coreCells(c.core)
      val tree = CoreTree(c.core)
      val want = refPres(c, c.factors)
      close(PTucker.computePres(c.idx, fd, tree, tree.scratch()), want) &&
        close(Array(TuckerKernels.predict(c.idx, fd, cc)), Array(want.sum))
    }

  property("the core tree's δ, per-cell products and their sum equal Eq. (13)/(5), from full to |G| = 1") =
    Prop.forAll(treeCaseGen) { c =>
      val fd = TuckerKernels.factorData(c.factors)
      val tree = CoreTree(c.core)
      val s = tree.scratch() // one scratch for every call, as in a task
      val deltas = (0 until c.order).forall { n =>
        val out = new Array[Double](c.ranks(n))
        tree.delta(c.idx, n, fd, s, out)
        close(out, refDelta(c, c.factors, n))
      }
      val ps = new Array[Double](c.core.nnz)
      val pred = tree.products(c.idx, fd, s, ps)
      val want = refPres(c, c.factors)
      tree.nnz == c.core.nnz && deltas && close(ps, want) && close(Array(pred), Array(want.sum))
    }

  property("deltaFromPres equals Eq. (13), also across a zero factor entry") =
    Prop.forAll(caseGen) { c =>
      val f = zeroed(c)
      val fd = TuckerKernels.factorData(f)
      val cc = TuckerKernels.coreCells(c.core)
      val tree = CoreTree(c.core)
      val pres = PTucker.computePres(c.idx, fd, tree, tree.scratch())
      (0 until c.order).forall { n =>
        close(PTucker.deltaFromPres(c.idx, pres, n, c.ranks(n), fd, cc), refDelta(c, f, n))
      }
    }

  property("patchPres equals fresh Pres, also when the old factor entry is zero") =
    Prop.forAll(caseGen) { c =>
      val old = zeroed(c)
      val m = c.zeroMode
      val updated = old.clone()
      updated(m) = DenseMatrix.rand(old(m).rows, old(m).cols, c.seed + 999)
      val cc = TuckerKernels.coreCells(c.core)
      val oldFd = TuckerKernels.factorData(old)
      val tree = CoreTree(c.core)
      val pres = PTucker.computePres(c.idx, oldFd, tree, tree.scratch())
      close(PTucker.patchPres(c.idx, pres, m, oldFd(m), cc, TuckerKernels.factorData(updated)),
        refPres(c, updated))
    }
}
