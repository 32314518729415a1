package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.TuckerHooi

/** Unit + property tests for the linear-algebra substrate every solver rests
  * on. LAPACK is not available offline, so these routines must be proven
  * here before any factorization result can be trusted.
  */
class DenseMatrixSpec extends AnyFunSuite {

  private def randSym(n: Int, seed: Long): DenseMatrix = {
    val a = DenseMatrix.rand(n, n, seed)
    val s = DenseMatrix.zeros(n, n)
    for (i <- 0 until n; j <- 0 until n) s(i, j) = 0.5 * (a(i, j) + a(j, i))
    s
  }

  private def spd(n: Int, seed: Long): DenseMatrix = {
    val a = DenseMatrix.rand(n, n, seed)
    val g = a.gram
    for (i <- 0 until n) g(i, i) += 0.5
    g
  }

  test("apply/update round-trip") {
    val m = DenseMatrix.zeros(3, 4)
    m(1, 2) = 5.5
    assert(m(1, 2) == 5.5)
    assert(m(0, 0) == 0.0)
  }

  test("row/setRow round-trip") {
    val m = DenseMatrix.rand(4, 3, 1)
    val r = Array(1.0, 2.0, 3.0)
    m.setRow(2, r)
    assert(m.row(2).toSeq == r.toSeq)
  }

  test("transpose involution") {
    val m = DenseMatrix.rand(5, 3, 2)
    assert(m.transpose.transpose.maxAbsDiff(m) == 0.0)
  }

  test("matrix multiply against hand-computed 2x2") {
    val a = DenseMatrix.fromRows(Array(Array(1.0, 2.0), Array(3.0, 4.0)))
    val b = DenseMatrix.fromRows(Array(Array(5.0, 6.0), Array(7.0, 8.0)))
    val c = a * b
    assert(c(0, 0) == 19.0 && c(0, 1) == 22.0 && c(1, 0) == 43.0 && c(1, 1) == 50.0)
  }

  test("multiply associates with identity") {
    val a = DenseMatrix.rand(4, 4, 3)
    assert((a * DenseMatrix.eye(4)).maxAbsDiff(a) < 1e-14)
    assert((DenseMatrix.eye(4) * a).maxAbsDiff(a) < 1e-14)
  }

  test("gram equals transpose-multiply") {
    for (r <- 1 to 8; c <- Seq(1, 3, 8); seed <- Seq(1L, 42L)) {
      val a = DenseMatrix.rand(r, c, seed)
      assert(a.gram.maxAbsDiff(a.transpose * a) < 1e-12)
    }
  }

  test("solve: residual is tiny for random SPD systems") {
    for (n <- 1 to 12; seed <- Seq(1L, 42L, 777L)) {
      val m = spd(n, seed)
      val b = DenseMatrix.rand(n, 1, seed + 1).data
      val x = DenseMatrix.solve(m, b)
      val r = (0 until n).map(i => math.abs((0 until n).map(j => m(i, j) * x(j)).sum - b(i))).max
      assert(r < 1e-8, s"residual $r for n=$n seed=$seed")
    }
  }

  test("solve: known 2x2 system") {
    val m = DenseMatrix.fromRows(Array(Array(2.0, 1.0), Array(1.0, 3.0)))
    val x = DenseMatrix.solve(m, Array(5.0, 10.0))
    assert(math.abs(x(0) - 1.0) < 1e-12 && math.abs(x(1) - 3.0) < 1e-12)
  }

  test("solve rejects a symmetric indefinite matrix") {
    val m = DenseMatrix.fromRows(Array(Array(0.0, 1.0), Array(1.0, 0.0)))
    intercept[IllegalArgumentException] { DenseMatrix.solve(m, Array(2.0, 3.0)) }
  }

  test("solve rejects a matrix with a NaN entry") {
    val m = DenseMatrix.fromRows(Array(Array(2.0, Double.NaN), Array(Double.NaN, 3.0)))
    intercept[IllegalArgumentException] { DenseMatrix.solve(m, Array(1.0, 1.0)) }
  }

  test("solve rejects singular matrices") {
    val m = DenseMatrix.fromRows(Array(Array(1.0, 2.0), Array(2.0, 4.0)))
    intercept[IllegalArgumentException] { DenseMatrix.solve(m, Array(1.0, 1.0)) }
  }

  test("qr: Q has orthonormal columns and QR = A") {
    for (c <- 1 to 8; seed <- Seq(5L, 123L)) {
      val r0 = c + 3
      val a = DenseMatrix.rand(r0, c, seed)
      val (q, r) = DenseMatrix.qr(a)
      assert(q.gram.maxAbsDiff(DenseMatrix.eye(c)) < 1e-10, "Q columns not orthonormal")
      assert((q * r).maxAbsDiff(a) < 1e-10, "QR != A")
      // R upper-triangular
      for (i <- 0 until c; j <- 0 until i) assert(math.abs(r(i, j)) < 1e-12)
    }
  }

  test("qr survives a rank-deficient column") {
    val a = DenseMatrix.fromRows(Array(
      Array(1.0, 2.0), Array(2.0, 4.0), Array(3.0, 6.0))) // col2 = 2*col1
    val (q, _) = DenseMatrix.qr(a)
    assert(q.gram.maxAbsDiff(DenseMatrix.eye(2)) < 1e-8)
  }

  test("symEigen: reconstructs the matrix (V diag(λ) Vᵀ = A)") {
    for (n <- 1 to 10; seed <- Seq(7L, 321L)) {
      val a = randSym(n, seed)
      val (vals, vecs) = DenseMatrix.symEigen(a)
      val lam = DenseMatrix.zeros(n, n)
      for (i <- 0 until n) lam(i, i) = vals(i)
      assert((vecs * lam * vecs.transpose).maxAbsDiff(a) < 1e-8)
    }
  }

  test("symEigen: eigenvalues sorted descending, vectors orthonormal") {
    val a = randSym(8, 99)
    val (vals, vecs) = DenseMatrix.symEigen(a)
    assert(vals.sliding(2).forall(p => p(0) >= p(1) - 1e-12))
    assert(vecs.gram.maxAbsDiff(DenseMatrix.eye(8)) < 1e-8)
  }

  test("symEigen: known eigenvalues of [[2,1],[1,2]]") {
    val a = DenseMatrix.fromRows(Array(Array(2.0, 1.0), Array(1.0, 2.0)))
    val (vals, _) = DenseMatrix.symEigen(a)
    assert(math.abs(vals(0) - 3.0) < 1e-10 && math.abs(vals(1) - 1.0) < 1e-10)
  }

  test("symEigen handles equal diagonal (theta=0 rotation)") {
    val a = DenseMatrix.fromRows(Array(Array(1.0, 1.0), Array(1.0, 1.0)))
    val (vals, _) = DenseMatrix.symEigen(a)
    assert(math.abs(vals(0) - 2.0) < 1e-10 && math.abs(vals(1)) < 1e-10)
  }

  test("leadingLeftSingularVectors: tall matrix, columns orthonormal, spans dominant subspace") {
    val y = DenseMatrix.rand(20, 5, 7)
    val u = TuckerHooi.leadingLeftSingularVectors(y, 3)
    assert(u.rows == 20 && u.cols == 3)
    assert(u.gram.maxAbsDiff(DenseMatrix.eye(3)) < 1e-8)
    // Projection captures at least as much energy as any 3 columns of Y
    val proj = u * (u.transpose * y)
    assert(proj.frobeniusNorm <= y.frobeniusNorm + 1e-9)
    assert(proj.frobeniusNorm > 0.5 * y.frobeniusNorm)
  }

  test("leadingLeftSingularVectors: wide matrix path") {
    val y = DenseMatrix.rand(4, 12, 8)
    val u = TuckerHooi.leadingLeftSingularVectors(y, 2)
    assert(u.rows == 4 && u.cols == 2)
    assert(u.gram.maxAbsDiff(DenseMatrix.eye(2)) < 1e-8)
  }

  test("leadingLeftSingularVectors: exactly recovers a planted rank-2 column space") {
    // y = u1 s1 v1ᵀ + u2 s2 v2ᵀ with known orthonormal u1,u2
    val u0 = DenseMatrix.qr(DenseMatrix.rand(10, 2, 3))._1
    val v0 = DenseMatrix.qr(DenseMatrix.rand(6, 2, 4))._1
    val s = DenseMatrix.zeros(2, 2); s(0, 0) = 5.0; s(1, 1) = 2.0
    val y = u0 * s * v0.transpose
    val u = TuckerHooi.leadingLeftSingularVectors(y, 2)
    // same column space: ‖U Uᵀ - U0 U0ᵀ‖ small
    val p1 = u * u.transpose
    val p2 = u0 * u0.transpose
    assert(p1.maxAbsDiff(p2) < 1e-7)
  }

  test("frobeniusNorm basic") {
    val a = DenseMatrix.fromRows(Array(Array(3.0, 4.0)))
    assert(math.abs(a.frobeniusNorm - 5.0) < 1e-12)
  }

  test("scale and add/subtract") {
    val a = DenseMatrix.rand(3, 3, 5)
    assert((a + a).maxAbsDiff(a.scale(2.0)) < 1e-14)
    assert((a - a).frobeniusNorm == 0.0)
  }
}
