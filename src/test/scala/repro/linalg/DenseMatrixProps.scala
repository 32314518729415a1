package repro.linalg

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suite for the linalg substrate (runs under sbt's
  * native ScalaCheck framework; the scalatest bridge is not in the offline
  * cache).
  */
object DenseMatrixProps extends Properties("DenseMatrix") {

  private val dimGen = Gen.choose(1, 9)
  private val seedGen = Gen.choose(0L, 10000L)

  private def spd(n: Int, seed: Long): DenseMatrix = {
    val g = DenseMatrix.rand(n, n, seed).gram
    var i = 0
    while (i < n) { g(i, i) += 0.5; i += 1 }
    g
  }

  property("solve residual < 1e-8 on SPD systems") =
    Prop.forAll(dimGen, seedGen) { (n, seed) =>
      val m = spd(n, seed)
      val b = DenseMatrix.rand(n, 1, seed + 1).data
      val x = DenseMatrix.solve(m, b)
      (0 until n).forall { i =>
        math.abs((0 until n).map(j => m(i, j) * x(j)).sum - b(i)) < 1e-8
      }
    }

  property("QR reproduces A with orthonormal Q") =
    Prop.forAll(dimGen, seedGen) { (c, seed) =>
      val a = DenseMatrix.rand(c + 4, c, seed)
      val (q, r) = DenseMatrix.qr(a)
      (q * r).maxAbsDiff(a) < 1e-9 &&
        q.gram.maxAbsDiff(DenseMatrix.eye(c)) < 1e-9
    }

  property("symEigen reconstructs the input") =
    Prop.forAll(dimGen, seedGen) { (n, seed) =>
      val a = DenseMatrix.rand(n, n, seed).gram
      val (vals, vecs) = DenseMatrix.symEigen(a)
      val lam = DenseMatrix.zeros(n, n)
      var i = 0
      while (i < n) { lam(i, i) = vals(i); i += 1 }
      (vecs * lam * vecs.transpose).maxAbsDiff(a) < 1e-7
    }

  property("transpose is an involution") =
    Prop.forAll(dimGen, dimGen, seedGen) { (r, c, seed) =>
      val a = DenseMatrix.rand(r, c, seed)
      a.transpose.transpose.maxAbsDiff(a) == 0.0
    }
}
