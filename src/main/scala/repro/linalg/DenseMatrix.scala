package repro.linalg

/** Minimal dense linear algebra for the small matrices P-Tucker and the
  * HOOI-family baselines manipulate (factor matrices `I×J`, normal-equation
  * blocks `J×J`, Gram matrices up to `J^{N-1}` square).
  *
  * Row-major storage; mutable internals, but every public op returns a new
  * matrix unless documented otherwise. No LAPACK/Breeze is on the
  * classpath, so Cholesky (SPD) solve, modified-Gram-Schmidt QR, and
  * cyclic-Jacobi symmetric eigendecomposition are implemented here and
  * oracle-tested in `DenseMatrixSpec`.
  */
final class DenseMatrix(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"data length ${data.length} != $rows x $cols")

  @inline def apply(i: Int, j: Int): Double = data(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  def copy: DenseMatrix = new DenseMatrix(rows, cols, data.clone())

  def row(i: Int): Array[Double] = java.util.Arrays.copyOfRange(data, i * cols, (i + 1) * cols)

  def setRow(i: Int, v: Array[Double]): Unit = {
    require(v.length == cols); System.arraycopy(v, 0, data, i * cols, cols)
  }

  def transpose: DenseMatrix = {
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out(j * rows + i) = data(i * cols + j); j += 1 }; i += 1 }
    new DenseMatrix(cols, rows, out)
  }

  def *(b: DenseMatrix): DenseMatrix = {
    require(cols == b.rows, s"dim mismatch: ${rows}x$cols * ${b.rows}x${b.cols}")
    val out = new Array[Double](rows * b.cols)
    var i = 0
    while (i < rows) {
      var k = 0
      while (k < cols) {
        val aik = data(i * cols + k)
        if (aik != 0.0) {
          var j = 0
          while (j < b.cols) { out(i * b.cols + j) += aik * b.data(k * b.cols + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    new DenseMatrix(rows, b.cols, out)
  }

  def +(b: DenseMatrix): DenseMatrix = {
    require(rows == b.rows && cols == b.cols)
    val out = new Array[Double](data.length)
    var i = 0; while (i < out.length) { out(i) = data(i) + b.data(i); i += 1 }
    new DenseMatrix(rows, cols, out)
  }

  def -(b: DenseMatrix): DenseMatrix = {
    require(rows == b.rows && cols == b.cols)
    val out = new Array[Double](data.length)
    var i = 0; while (i < out.length) { out(i) = data(i) - b.data(i); i += 1 }
    new DenseMatrix(rows, cols, out)
  }

  def scale(s: Double): DenseMatrix = {
    val out = new Array[Double](data.length)
    var i = 0; while (i < out.length) { out(i) = data(i) * s; i += 1 }
    new DenseMatrix(rows, cols, out)
  }

  def frobeniusNorm: Double = {
    var s = 0.0; var i = 0
    while (i < data.length) { s += data(i) * data(i); i += 1 }
    math.sqrt(s)
  }

  def maxAbsDiff(b: DenseMatrix): Double = {
    require(rows == b.rows && cols == b.cols)
    var m = 0.0; var i = 0
    while (i < data.length) { m = math.max(m, math.abs(data(i) - b.data(i))); i += 1 }
    m
  }

  /** Gram matrix `AᵀA` (cols×cols), computed without forming the transpose. */
  def gram: DenseMatrix = {
    val out = new Array[Double](cols * cols)
    var i = 0
    while (i < rows) {
      val off = i * cols
      var a = 0
      while (a < cols) {
        val va = data(off + a)
        if (va != 0.0) {
          var b = a
          while (b < cols) { out(a * cols + b) += va * data(off + b); b += 1 }
        }
        a += 1
      }
      i += 1
    }
    // mirror the upper triangle
    var a = 0
    while (a < cols) { var b = a + 1; while (b < cols) { out(b * cols + a) = out(a * cols + b); b += 1 }; a += 1 }
    new DenseMatrix(cols, cols, out)
  }
}

object DenseMatrix {
  def zeros(rows: Int, cols: Int): DenseMatrix = new DenseMatrix(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): DenseMatrix = {
    val m = zeros(n, n); var i = 0; while (i < n) { m(i, i) = 1.0; i += 1 }; m
  }

  def fromRows(rs: Array[Array[Double]]): DenseMatrix = {
    val rows = rs.length; val cols = rs(0).length
    val d = new Array[Double](rows * cols)
    var i = 0; while (i < rows) { System.arraycopy(rs(i), 0, d, i * cols, cols); i += 1 }
    new DenseMatrix(rows, cols, d)
  }

  /** Uniform(0,1) random matrix — matches the paper's factor/core init. */
  def rand(rows: Int, cols: Int, seed: Long): DenseMatrix = {
    val rng = new scala.util.Random(seed)
    val d = Array.fill(rows * cols)(rng.nextDouble())
    new DenseMatrix(rows, cols, d)
  }

  /** Solves `M x = b` for symmetric positive-definite `M` by Cholesky
    * (`M = L·Lᵀ`, reading only the lower triangle), then forward and back
    * substitution. `M` is not modified. Rejects `M` with
    * `IllegalArgumentException` when a pivot is not `> 0`: `M` is not
    * positive definite, or holds NaN.
    */
  def solve(m: DenseMatrix, b: Array[Double]): Array[Double] = {
    require(m.rows == m.cols && b.length == m.rows)
    val n = m.rows
    val l = new Array[Double](n * n)
    var j = 0
    while (j < n) {
      var i = j
      while (i < n) {
        var s = m.data(i * n + j)
        var k = 0
        while (k < j) { s -= l(i * n + k) * l(j * n + k); k += 1 }
        if (i == j) {
          require(s > 0, s"matrix not positive definite at pivot $j ($s)")
          l(i * n + j) = math.sqrt(s)
        } else l(i * n + j) = s / l(j * n + j)
        i += 1
      }
      j += 1
    }
    // L y = b, then Lᵀ x = y, both in x
    val x = b.clone()
    var i = 0
    while (i < n) {
      var s = x(i); var k = 0
      while (k < i) { s -= l(i * n + k) * x(k); k += 1 }
      x(i) = s / l(i * n + i); i += 1
    }
    i = n - 1
    while (i >= 0) {
      var s = x(i); var k = i + 1
      while (k < n) { s -= l(k * n + i) * x(k); k += 1 }
      x(i) = s / l(i * n + i); i -= 1
    }
    x
  }

  /** Thin QR (`A = Q·R`, Q: rows×cols column-orthonormal, R: cols×cols upper
    * triangular) via modified Gram-Schmidt. Rank-deficient columns get a
    * deterministic replacement direction so Q stays orthonormal (the paper's
    * factor matrices are random-init and generically full-rank).
    */
  def qr(a: DenseMatrix): (DenseMatrix, DenseMatrix) = {
    val m = a.rows; val n = a.cols
    require(m >= n, s"thin QR needs rows >= cols ($m < $n)")
    val q = a.copy
    val r = zeros(n, n)
    val rng = new scala.util.Random(42)
    var k = 0
    while (k < n) {
      var nrm = 0.0
      var i = 0
      while (i < m) { val v = q(i, k); nrm += v * v; i += 1 }
      nrm = math.sqrt(nrm)
      if (nrm < 1e-12) {
        // degenerate column: substitute a random direction, re-orthogonalize
        i = 0; while (i < m) { q(i, k) = rng.nextDouble() - 0.5; i += 1 }
        var j = 0
        while (j < k) {
          var dot = 0.0; i = 0; while (i < m) { dot += q(i, j) * q(i, k); i += 1 }
          i = 0; while (i < m) { q(i, k) -= dot * q(i, j); i += 1 }
          j += 1
        }
        nrm = 0.0; i = 0; while (i < m) { val v = q(i, k); nrm += v * v; i += 1 }
        nrm = math.sqrt(nrm)
        r(k, k) = 0.0
      } else r(k, k) = nrm
      i = 0; while (i < m) { q(i, k) /= nrm; i += 1 }
      var j = k + 1
      while (j < n) {
        var dot = 0.0; i = 0; while (i < m) { dot += q(i, k) * q(i, j); i += 1 }
        r(k, j) = dot
        i = 0; while (i < m) { q(i, j) -= dot * q(i, k); i += 1 }
        j += 1
      }
      k += 1
    }
    (q, r)
  }

  /** Symmetric eigendecomposition by cyclic Jacobi rotations.
    * Returns (eigenvalues desc, eigenvectors as columns, same order).
    */
  def symEigen(mIn: DenseMatrix, maxSweeps: Int = 64, tol: Double = 1e-12): (Array[Double], DenseMatrix) = {
    require(mIn.rows == mIn.cols)
    val n = mIn.rows
    val a = mIn.copy
    val v = eye(n)
    var sweep = 0
    var off = offDiagNorm(a)
    while (sweep < maxSweeps && off > tol * (1.0 + a.frobeniusNorm)) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p, q)
          if (math.abs(apq) > 1e-300) {
            val app = a(p, p); val aqq = a(q, q)
            val theta = (aqq - app) / (2.0 * apq)
            val t = math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0)) match {
              case 0.0 => 1.0 / (theta + math.sqrt(theta * theta + 1.0))
              case x   => x
            }
            val c = 1.0 / math.sqrt(t * t + 1.0)
            val s = t * c
            // rotate rows/cols p,q of a
            var k = 0
            while (k < n) {
              val akp = a(k, p); val akq = a(k, q)
              a(k, p) = c * akp - s * akq
              a(k, q) = s * akp + c * akq
              k += 1
            }
            k = 0
            while (k < n) {
              val apk = a(p, k); val aqk = a(q, k)
              a(p, k) = c * apk - s * aqk
              a(q, k) = s * apk + c * aqk
              k += 1
            }
            k = 0
            while (k < n) {
              val vkp = v(k, p); val vkq = v(k, q)
              v(k, p) = c * vkp - s * vkq
              v(k, q) = s * vkp + c * vkq
              k += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(a)
      sweep += 1
    }
    val vals = Array.tabulate(n)(i => a(i, i))
    val order = vals.indices.sortBy(i => -vals(i)).toArray
    val sortedVals = order.map(vals)
    val sortedVecs = zeros(n, n)
    var j = 0
    while (j < n) { var i = 0; while (i < n) { sortedVecs(i, j) = v(i, order(j)); i += 1 }; j += 1 }
    (sortedVals, sortedVecs)
  }

  private def offDiagNorm(a: DenseMatrix): Double = {
    var s = 0.0; var i = 0
    while (i < a.rows) { var j = 0; while (j < a.cols) { if (i != j) s += a(i, j) * a(i, j); j += 1 }; i += 1 }
    math.sqrt(s)
  }
}
