(* MiniC kernel templates. Sources use Printf with explicit scale
   parameters; every kernel prints a checksum and returns 0. *)

let prelude =
  {|
extern void* malloc(long n);
extern void free(void* p);
extern int printf(const char *fmt, ...);
extern char* strcpy(char* dst, const char* src);
extern long strlen(const char* s);
extern int strcmp(const char* a, const char* b);
extern char* strstr(const char* hay, const char* needle);
extern void* memset(void* p, int c, long n);
|}

let hash_table ~buckets ~items ~lookups =
  prelude
  ^ Printf.sprintf
      {|
struct entry {
  long key;
  void* value;
  struct entry* next;
};
struct payload {
  long a;
  long b;
};
/* Statistics registry: two same-typed counter cells whose pointers are
   routed through one helper. Only the public cell is handed to external
   code, and only the private cell is dereferenced locally — so an
   insensitive points-to merges the two return channels and taints the
   private side, while a call-site-cloned solve keeps them apart. The
   real perlbench/xalancbmk interpreters share this registry idiom. */
struct stat_counter {
  long hits;
  long misses;
};
extern void report_stats(struct stat_counter** slot);
struct stat_counter pub_stats;
struct stat_counter priv_stats;
struct stat_counter** pick(struct stat_counter** a) { return a; }
struct entry* table[%d];
long hash(long key) {
  /* FNV-style byte-at-a-time hash: the scalar work real interpreters do */
  long h = 1469598103;
  for (int i = 0; i < 8; i++) {
    h = h ^ ((key >> (i * 8)) & 255);
    h = (h * 16777619) %% 1099511627689;
  }
  return h %% %d;
}
void insert(long key, void* value) {
  struct entry* e = (struct entry*) malloc(sizeof(struct entry));
  e->key = key;
  e->value = value;
  long h = hash(key);
  if (h < 0) { h = -h; }
  e->next = table[h];
  table[h] = e;
}
long entry_matches(struct entry* e, long key) {
  return e->key == key ? 1 : 0;
}
void* lookup(long key) {
  long h = hash(key);
  if (h < 0) { h = -h; }
  struct entry* e = table[h];
  while (e) {
    if (entry_matches(e, key)) { return e->value; }
    e = e->next;
  }
  return NULL;
}
int main(void) {
  for (int i = 0; i < %d; i++) {
    struct payload* p = (struct payload*) malloc(sizeof(struct payload));
    p->a = i;
    p->b = i * 3;
    insert(i * 7, (void*) p);
  }
  long sum = 0;
  for (int i = 0; i < %d; i++) {
    void* v = lookup((i %% %d) * 7);
    if (v) {
      struct payload* p = (struct payload*) v;
      sum = sum + p->a + p->b;
    }
  }
  struct stat_counter* sp = &pub_stats;
  struct stat_counter* lp = &priv_stats;
  struct stat_counter** spp = pick(&sp);
  struct stat_counter** lpp = pick(&lp);
  if (sum < 0) { report_stats(spp); }
  struct stat_counter* t = *lpp;
  t->hits = t->hits + 1;
  printf("hash checksum %%ld\n", sum);
  return 0;
}
|}
      buckets buckets items lookups items

let event_queue ~events =
  prelude
  ^ Printf.sprintf
      {|
struct event {
  long time;
  long kind;
  struct event* next;
};
struct event* queue;
long process_event(struct event* e) {
  /* module state update arithmetic */
  long state = e->kind;
  for (int k = 0; k < 16; k++) {
    state = (state * 131 + e->time + k) %% 999983;
    if (state & 1) { state = state + 3; }
  }
  return e->time + state %% 5;
}
void schedule(long time, long kind) {
  struct event* e = (struct event*) malloc(sizeof(struct event));
  e->time = time;
  e->kind = kind;
  e->next = NULL;
  if (!queue || queue->time > time) {
    e->next = queue;
    queue = e;
    return;
  }
  struct event* cur = queue;
  while (cur->next && cur->next->time <= time) {
    cur = cur->next;
  }
  e->next = cur->next;
  cur->next = e;
}
int main(void) {
  long seed = 12345;
  int n = %d;
  for (int i = 0; i < n; i++) {
    seed = (seed * 1103515245 + 12345) %% 2147483647;
    /* near-sorted arrival: inserts stay close to the queue head */
    schedule((n - i) * 8 + seed %% 16, i %% 7);
  }
  long clock = 0;
  long handled = 0;
  while (queue) {
    struct event* e = queue;
    queue = e->next;
    clock = clock + process_event(e);
    handled = handled + 1;
    free((void*) e);
  }
  printf("events %%ld clock %%ld\n", handled, clock);
  return 0;
}
|}
      events

let binary_tree ~nodes ~searches =
  prelude
  ^ Printf.sprintf
      {|
struct tnode {
  long key;
  struct tnode* left;
  struct tnode* right;
};
struct tnode* root;
void insert(long key) {
  struct tnode* n = (struct tnode*) malloc(sizeof(struct tnode));
  n->key = key;
  n->left = NULL;
  n->right = NULL;
  if (!root) { root = n; return; }
  struct tnode* cur = root;
  while (1) {
    if (key < cur->key) {
      if (!cur->left) { cur->left = n; return; }
      cur = cur->left;
    } else {
      if (!cur->right) { cur->right = n; return; }
      cur = cur->right;
    }
  }
}
long compare_keys(struct tnode* n, long key) {
  /* composite-key comparison: the per-node work of real tree code */
  long a = n->key;
  long probe = key;
  for (int k = 0; k < 6; k++) {
    probe = (probe * 33 + a + k) %% 1000003;
  }
  if (a == key) { return 0; }
  return key < a ? -1 - probe %% 2 : 1 + probe %% 2;
}
long search(long key) {
  struct tnode* cur = root;
  long depth = 0;
  while (cur) {
    depth = depth + 1;
    long c = compare_keys(cur, key);
    if (c == 0) { return depth; }
    if (c < 0) { cur = cur->left; } else { cur = cur->right; }
  }
  return -depth;
}
int main(void) {
  long seed = 99;
  for (int i = 0; i < %d; i++) {
    seed = (seed * 1103515245 + 12345) %% 1000003;
    insert(seed);
  }
  long sum = 0;
  seed = 99;
  for (int i = 0; i < %d; i++) {
    seed = (seed * 1103515245 + 12345) %% 1000003;
    sum = sum + search(seed);
  }
  printf("tree checksum %%ld\n", sum);
  return 0;
}
|}
      nodes searches

let network_simplex ~nodes ~iters =
  prelude
  ^ Printf.sprintf
      {|
struct arc {
  long cost;
  long flow;
  struct mcf_node* tail;
  struct mcf_node* head;
};
struct mcf_node {
  long potential;
  long depth;
  struct arc* basic_arc;
  struct mcf_node* pred;
};
struct mcf_node* net[%d];
long reduced_cost(struct arc* a) {
  return a->cost + a->tail->potential - a->head->potential;
}
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    struct mcf_node* v = (struct mcf_node*) malloc(sizeof(struct mcf_node));
    v->potential = i * 17 %% 101;
    v->depth = 0;
    v->basic_arc = NULL;
    v->pred = NULL;
    net[i] = v;
  }
  for (int i = 1; i < n; i++) {
    struct arc* a = (struct arc*) malloc(sizeof(struct arc));
    a->cost = (i * 31) %% 97;
    a->flow = 0;
    a->tail = net[i - 1];
    a->head = net[i];
    net[i]->basic_arc = a;
    net[i]->pred = net[i - 1];
  }
  long objective = 0;
  for (int it = 0; it < %d; it++) {
    for (int i = 1; i < n; i++) {
      struct mcf_node* v = net[i];
      struct arc* a = v->basic_arc;
      if (a) {
        long reduced = reduced_cost(a);
        /* price refinement: the scalar work that dominates real mcf */
        long price = v->potential;
        for (int k = 0; k < 12; k++) {
          price = (price * 3 + reduced + k) %% 65449;
          if (price > 32768) { price = price - 17; }
        }
        if (reduced < 0) {
          a->flow = a->flow + 1;
          v->potential = price %% 4096;
        }
        objective = objective + a->flow + price %% 7;
      }
      v->depth = v->pred ? v->pred->depth + 1 : 0;
    }
  }
  printf("mcf objective %%ld\n", objective);
  return 0;
}
|}
      nodes nodes iters

let stencil ~n ~iters =
  prelude
  ^ Printf.sprintf
      {|
/* lbm idiom: the grids are swapped by exchanging two global pointers
   each timestep (LBM_swapGrids); element traffic goes through locals
   the pointer loads are hoisted into, so only the per-step swap touches
   instrumented slots. The pointers are declared before the writable
   arrays, where no overflow window reaches them. */
double* src;
double* dst;
double grid_a[%d];
double grid_b[%d];
int main(void) {
  int n = %d;
  src = grid_a;
  dst = grid_b;
  double* init = src;
  for (int i = 0; i < n; i++) {
    init[i] = (double) (i %% 13) * 0.5;
  }
  for (int it = 0; it < %d; it++) {
    double* s = src;
    double* d = dst;
    for (int i = 1; i < n - 1; i++) {
      d[i] = 0.25 * s[i - 1] + 0.5 * s[i] + 0.25 * s[i + 1];
    }
    d[0] = s[0];
    d[n - 1] = s[n - 1];
    double* t = src;
    src = dst;
    dst = t;
  }
  double sum = 0.0;
  double* fin = src;
  for (int i = 0; i < n; i++) {
    sum = sum + fin[i];
  }
  printf("stencil checksum %%f\n", sum);
  return 0;
}
|}
      n n n iters

let dispatch_table ~rounds =
  prelude
  ^ Printf.sprintf
      {|
long mix(long a, long b) {
  long h = a * 31 + b;
  h = h ^ (h >> 7);
  h = (h * 131 + 17) %% 1048573;
  h = h ^ (h >> 3);
  return h;
}
long op_add(long a, long b) { return mix(a + b, a); }
long op_sub(long a, long b) { return mix(a - b, b); }
long op_mul(long a, long b) { return mix(a * b %% 65521, a + b); }
long op_xor(long a, long b) { return mix(a ^ b, a - b); }
long op_shl(long a, long b) { return mix((a << (b %% 8)) %% 1048573, b); }
long (*ops[5])(long a, long b);
int main(void) {
  ops[0] = op_add;
  ops[1] = op_sub;
  ops[2] = op_mul;
  ops[3] = op_xor;
  ops[4] = op_shl;
  long acc = 1;
  for (int i = 0; i < %d; i++) {
    acc = ops[i %% 5](acc, i) & 1048575;
  }
  printf("dispatch acc %%ld\n", acc);
  return 0;
}
|}
      rounds

let sparse_matrix ~rows ~iters =
  prelude
  ^ Printf.sprintf
      {|
struct row {
  long nnz;
  long* cols;
  double* vals;
};
struct row* mat[%d];
double x[%d];
double y[%d];
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    struct row* r = (struct row*) malloc(sizeof(struct row));
    r->nnz = 16;
    r->cols = (long*) malloc(16 * sizeof(long));
    r->vals = (double*) malloc(16 * sizeof(double));
    for (int k = 0; k < 16; k++) {
      r->cols[k] = (i + k * 7) %% n;
      r->vals[k] = (double) ((i + k) %% 9) * 0.25;
    }
    mat[i] = r;
    x[i] = 1.0;
  }
  for (int it = 0; it < %d; it++) {
    for (int i = 0; i < n; i++) {
      struct row* r = mat[i];
      long nnz = r->nnz;
      long* cols = r->cols;
      double* vals = r->vals;
      double acc = 0.0;
      for (int k = 0; k < nnz; k++) {
        acc = acc + vals[k] * x[cols[k]];
      }
      y[i] = acc;
    }
    for (int i = 0; i < n; i++) {
      x[i] = y[i] * 0.5 + 0.5;
    }
  }
  double sum = 0.0;
  for (int i = 0; i < n; i++) { sum = sum + x[i]; }
  printf("spmv checksum %%f\n", sum);
  return 0;
}
|}
      rows rows rows rows iters

let scene_render ~objects ~rays =
  prelude
  ^ Printf.sprintf
      {|
struct shape {
  double center;
  double radius;
  long (*intersect)(struct shape* self, double ray);
};
long sphere_intersect(struct shape* self, double ray) {
  double d = ray - self->center;
  if (d < 0.0) { d = -d; }
  return d < self->radius ? 1 : 0;
}
long box_intersect(struct shape* self, double ray) {
  double d = ray - self->center;
  return d >= -self->radius && d <= self->radius ? 1 : 0;
}
struct shape* scene[%d];
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    struct shape* s = (struct shape*) malloc(sizeof(struct shape));
    s->center = (double) (i * 7 %% 100);
    s->radius = 1.5 + (double) (i %% 3);
    if (i %% 2 == 0) { s->intersect = sphere_intersect; }
    else { s->intersect = box_intersect; }
    scene[i] = s;
  }
  long hits = 0;
  for (int r = 0; r < %d; r++) {
    double ray = (double) (r %% 100);
    for (int i = 0; i < n; i++) {
      struct shape* s = scene[i];
      hits = hits + s->intersect(s, ray);
    }
  }
  printf("render hits %%ld\n", hits);
  return 0;
}
|}
      objects objects rays

let compress ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
char input[%d];
char output[%d];
long freq[256];
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    input[i] = (char) ((i * 31 + i / 7) %% 251);
  }
  long out_len = 0;
  for (int r = 0; r < %d; r++) {
    out_len = 0;
    for (int i = 0; i < 256; i++) { freq[i] = 0; }
    int i = 0;
    while (i < n) {
      char c = input[i];
      int run = 1;
      while (i + run < n && input[i + run] == c && run < 100) {
        run = run + 1;
      }
      freq[(int) c & 255] = freq[(int) c & 255] + run;
      output[out_len %% %d] = c;
      out_len = out_len + 1;
      i = i + run;
    }
  }
  long checksum = 0;
  for (int i = 0; i < 256; i++) { checksum = checksum + freq[i] * i; }
  printf("compress %%ld out %%ld\n", checksum, out_len);
  return 0;
}
|}
      n n n rounds n

let quantum_gates ~qubits ~rounds =
  prelude
  ^ Printf.sprintf
      {|
long reg_state[%d];
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) { reg_state[i] = i; }
  for (int r = 0; r < %d; r++) {
    for (int i = 0; i < n; i++) {
      reg_state[i] = reg_state[i] ^ (1 << (r %% 16));
    }
    for (int i = 0; i + 1 < n; i++) {
      if (reg_state[i] & 1) {
        reg_state[i + 1] = reg_state[i + 1] ^ 2;
      }
    }
  }
  long sum = 0;
  for (int i = 0; i < n; i++) { sum = sum + reg_state[i]; }
  printf("quantum %%ld\n", sum);
  return 0;
}
|}
      qubits qubits rounds

let dp_align ~m ~n =
  prelude
  ^ Printf.sprintf
      {|
long score[%d];
long prev[%d];
int main(void) {
  int m = %d;
  int n = %d;
  for (int j = 0; j <= n; j++) { prev[j] = j * -2; }
  for (int i = 1; i <= m; i++) {
    score[0] = i * -2;
    for (int j = 1; j <= n; j++) {
      long match = prev[j - 1] + ((i * 7 + j * 3) %% 4 == 0 ? 5 : -3);
      long del = prev[j] - 2;
      long ins = score[j - 1] - 2;
      long best = match;
      if (del > best) { best = del; }
      if (ins > best) { best = ins; }
      score[j] = best;
    }
    for (int j = 0; j <= n; j++) { prev[j] = score[j]; }
  }
  printf("align score %%ld\n", prev[n]);
  return 0;
}
|}
      (n + 1) (n + 1) m n

let tensor_mlp ~features ~hidden ~iters =
  prelude
  ^ Printf.sprintf
      {|
struct tensor {
  long rows;
  long cols;
  double* data;
};
struct layer {
  struct tensor* weight;
  struct tensor* bias;
  double (*activation)(double x);
};
double relu(double x) { return x > 0.0 ? x : 0.0; }
double identity(double x) { return x; }
struct tensor* make_tensor(long rows, long cols) {
  struct tensor* t = (struct tensor*) malloc(sizeof(struct tensor));
  t->rows = rows;
  t->cols = cols;
  t->data = (double*) malloc(rows * cols * sizeof(double));
  for (long i = 0; i < rows * cols; i++) {
    t->data[i] = (double) ((i * 13) %% 7) * 0.1 - 0.3;
  }
  return t;
}
void forward(struct layer* l, struct tensor* in, struct tensor* out) {
  struct tensor* w = l->weight;
  long rows = w->rows;
  long cols = w->cols;
  double* wdata = w->data;
  double* bias = l->bias->data;
  double* indata = in->data;
  double* outdata = out->data;
  for (long r = 0; r < rows; r++) {
    double acc = bias[r];
    for (long c = 0; c < cols; c++) {
      acc = acc + wdata[r * cols + c] * indata[c];
    }
    outdata[r] = l->activation(acc);
  }
}
int main(void) {
  int features = %d;
  int hidden = %d;
  struct layer* l1 = (struct layer*) malloc(sizeof(struct layer));
  l1->weight = make_tensor(hidden, features);
  l1->bias = make_tensor(hidden, 1);
  l1->activation = relu;
  struct layer* l2 = (struct layer*) malloc(sizeof(struct layer));
  l2->weight = make_tensor(4, hidden);
  l2->bias = make_tensor(4, 1);
  l2->activation = identity;
  struct tensor* input = make_tensor(features, 1);
  struct tensor* mid = make_tensor(hidden, 1);
  struct tensor* out = make_tensor(4, 1);
  double total = 0.0;
  for (int it = 0; it < %d; it++) {
    for (int i = 0; i < features; i++) {
      input->data[i] = (double) ((it + i) %% 11) * 0.2;
    }
    forward(l1, input, mid);
    forward(l2, mid, out);
    total = total + out->data[it %% 4];
  }
  printf("mlp output %%f\n", total);
  return 0;
}
|}
      features hidden iters

let tensor_stencil ~n ~iters =
  prelude
  ^ Printf.sprintf
      {|
/* a PyTorch-style operator: data lives behind tensor objects, each row
   is processed by a kernel helper taking the tensors as arguments */
struct tensor {
  long len;
  double* data;
};
struct tensor* src;
struct tensor* dst;
struct tensor* make(long len) {
  struct tensor* t = (struct tensor*) malloc(sizeof(struct tensor));
  t->len = len;
  t->data = (double*) malloc(len * sizeof(double));
  for (long i = 0; i < len; i++) {
    t->data[i] = (double) (i %% 13) * 0.5;
  }
  return t;
}
void blur_row(struct tensor* a, struct tensor* b, long lo, long hi) {
  double* x = a->data;
  double* y = b->data;
  for (long i = lo; i < hi; i++) {
    y[i] = 0.25 * x[i - 1] + 0.5 * x[i] + 0.25 * x[i + 1];
  }
}
int main(void) {
  int n = %d;
  src = make(n);
  dst = make(n);
  for (int it = 0; it < %d; it++) {
    /* operator dispatch granularity: 32-element tiles, like an
       interpreter issuing kernel calls */
    for (long lo = 1; lo + 32 < n; lo = lo + 32) {
      blur_row(src, dst, lo, lo + 32);
    }
    struct tensor* tmp = src;
    src = dst;
    dst = tmp;
  }
  double sum = 0.0;
  double* d = src->data;
  for (int i = 0; i < n; i++) { sum = sum + d[i]; }
  printf("tensor stencil %%f\n", sum);
  return 0;
}
|}
      n iters

let http_server ~requests =
  prelude
  ^ Printf.sprintf
      {|
struct request {
  char url[64];
  long method;
  long status;
};
struct handler {
  const char* prefix;
  long (*serve)(struct request* r);
};
long serve_static(struct request* r) {
  r->status = 200;
  return strlen(r->url);
}
long serve_api(struct request* r) {
  r->status = r->method == 1 ? 201 : 200;
  return 16;
}
long serve_notfound(struct request* r) {
  r->status = 404;
  return 0;
}
struct handler* routes[3];
struct handler* make_route(const char* prefix, long (*serve)(struct request* r)) {
  struct handler* h = (struct handler*) malloc(sizeof(struct handler));
  h->prefix = prefix;
  h->serve = serve;
  return h;
}
long parse_headers(struct request* r) {
  /* header scan: hash each byte of the url, the parsing work that
     dominates real request handling */
  long h = 5381;
  char* u = r->url;
  long i = 0;
  while (u[i] && i < 64) {
    h = (h * 33 + u[i]) %% 1000000007;
    i = i + 1;
  }
  return h;
}
long dispatch(struct request* r) {
  long h = parse_headers(r);
  for (int i = 0; i < 2; i++) {
    struct handler* hd = routes[i];
    if (strstr(r->url, hd->prefix) == r->url) {
      return hd->serve(r) + h %% 2;
    }
  }
  return routes[2]->serve(r) + h %% 2;
}
int main(void) {
  routes[0] = make_route("/static", serve_static);
  routes[1] = make_route("/api", serve_api);
  routes[2] = make_route("", serve_notfound);
  struct request* r = (struct request*) malloc(sizeof(struct request));
  long bytes = 0;
  long ok = 0;
  for (int i = 0; i < %d; i++) {
    switch (i %% 3) {
    case 0:
      strcpy(r->url, "/static/index.html");
      break;
    case 1:
      strcpy(r->url, "/api/v1/items");
      break;
    default:
      strcpy(r->url, "/favicon.ico");
    }
    r->method = i %% 2;
    bytes = bytes + dispatch(r);
    if (r->status < 400) { ok = ok + 1; }
  }
  printf("served %%ld ok %%ld bytes\n", ok, bytes);
  return 0;
}
|}
      requests

let su3_lattice ~sites ~sweeps =
  prelude
  ^ Printf.sprintf
      {|
/* lattice QCD flavour (milc): 3x3 complex-ish matrix multiplies over a
   flat lattice; pure double arrays, no pointers in the hot loop */
double lat_re[%d];
double lat_im[%d];
int main(void) {
  int n = %d;
  for (int i = 0; i < 9 * n; i++) {
    lat_re[i] = (double) (i %% 7) * 0.25;
    lat_im[i] = (double) (i %% 5) * 0.125;
  }
  double plaq = 0.0;
  for (int sweep = 0; sweep < %d; sweep++) {
    for (int s = 0; s + 1 < n; s++) {
      long a = 9 * s;
      long b = 9 * (s + 1);
      /* trace of the 3x3 product, complex arithmetic unrolled *)
       */
      double tr_re = 0.0;
      double tr_im = 0.0;
      for (int i = 0; i < 3; i++) {
        for (int k = 0; k < 3; k++) {
          double xr = lat_re[a + 3 * i + k];
          double xi = lat_im[a + 3 * i + k];
          double yr = lat_re[b + 3 * k + i];
          double yi = lat_im[b + 3 * k + i];
          tr_re = tr_re + xr * yr - xi * yi;
          tr_im = tr_im + xr * yi + xi * yr;
        }
      }
      plaq = plaq + tr_re * 0.333 + tr_im * 0.1;
      lat_re[a] = lat_re[a] * 0.999 + plaq * 0.000001;
    }
  }
  printf("milc plaquette %%f\n", plaq);
  return 0;
}
|}
      (9 * sites) (9 * sites) sites sweeps

let force_field ~atoms ~steps =
  prelude
  ^ Printf.sprintf
      {|
/* molecular dynamics flavour (namd/nab): pairwise short-range forces
   over coordinate arrays with a cutoff. Like real nab, the arrays are
   reached through global pointers (the molecule structure's coordinate
   and force views) hoisted into locals per step; the pointers precede
   every writable array, out of overflow-window reach. */
double* pos_x;
double* pos_y;
double* frc_x;
double* frc_y;
double px[%d];
double py[%d];
double fx[%d];
double fy[%d];
int main(void) {
  int n = %d;
  pos_x = px;
  pos_y = py;
  frc_x = fx;
  frc_y = fy;
  double* ix = pos_x;
  double* iy = pos_y;
  for (int i = 0; i < n; i++) {
    ix[i] = (double) ((i * 13) %% 50);
    iy[i] = (double) ((i * 29) %% 50);
  }
  double energy = 0.0;
  for (int step = 0; step < %d; step++) {
    double* ax = pos_x;
    double* ay = pos_y;
    double* gx = frc_x;
    double* gy = frc_y;
    for (int i = 0; i < n; i++) { gx[i] = 0.0; gy[i] = 0.0; }
    for (int i = 0; i < n; i++) {
      for (int j = i + 1; j < n && j < i + 12; j++) {
        double dx = ax[i] - ax[j];
        double dy = ay[i] - ay[j];
        double r2 = dx * dx + dy * dy + 0.01;
        if (r2 < 100.0) {
          double inv = 1.0 / r2;
          double f = inv * inv - 0.5 * inv;
          gx[i] = gx[i] + f * dx;
          gy[i] = gy[i] + f * dy;
          gx[j] = gx[j] - f * dx;
          gy[j] = gy[j] - f * dy;
          energy = energy + f;
        }
      }
    }
    for (int i = 0; i < n; i++) {
      ax[i] = ax[i] + gx[i] * 0.001;
      ay[i] = ay[i] + gy[i] * 0.001;
    }
  }
  printf("namd energy %%f\n", energy);
  return 0;
}
|}
      atoms atoms atoms atoms atoms steps

let mcts ~playouts =
  prelude
  ^ Printf.sprintf
      {|
/* Monte-Carlo tree search flavour (leela): tree of nodes with child
   pointers, UCB selection, playout stats back-propagation */
struct mnode {
  long visits;
  long wins;
  struct mnode* child[4];
  struct mnode* parent;
};
struct mnode* root;
struct mnode* make_node(struct mnode* parent) {
  struct mnode* n = (struct mnode*) malloc(sizeof(struct mnode));
  n->visits = 0;
  n->wins = 0;
  for (int i = 0; i < 4; i++) { n->child[i] = NULL; }
  n->parent = parent;
  return n;
}
long select_child(struct mnode* n, long seed) {
  long best = 0;
  long best_score = -1;
  for (int i = 0; i < 4; i++) {
    struct mnode* c = n->child[i];
    long score = 0;
    if (!c) { score = 1000 + (seed + i) %% 16; }
    else {
      /* integer UCB: wins/visits scaled, plus an exploration bonus *)
       */
      score = (c->wins * 1000) / (c->visits + 1)
        + (n->visits * 40) / (c->visits + 1);
    }
    if (score > best_score) { best_score = score; best = i; }
  }
  return best;
}
int main(void) {
  root = make_node(NULL);
  long seed = 17;
  for (int p = 0; p < %d; p++) {
    /* selection + expansion *)
     */
    struct mnode* cur = root;
    long depth = 0;
    while (depth < 6) {
      seed = (seed * 1103515245 + 12345) %% 2147483647;
      long i = select_child(cur, seed);
      if (!cur->child[i]) {
        cur->child[i] = make_node(cur);
        cur = cur->child[i];
        depth = depth + 1;
        break;
      }
      cur = cur->child[i];
      depth = depth + 1;
    }
    /* playout: hash arithmetic standing in for the simulated game *)
     */
    long result = 0;
    for (int k = 0; k < 24; k++) {
      seed = (seed * 6364136223846793005 + 1442695040888963407) %% 2147483647;
      result = result ^ (seed %% 3);
    }
    /* back-propagation through parent pointers *)
     */
    while (cur) {
      cur->visits = cur->visits + 1;
      cur->wins = cur->wins + (result %% 2);
      cur = cur->parent;
    }
  }
  printf("mcts visits %%ld wins %%ld\n", root->visits, root->wins);
  return 0;
}
|}
      playouts

let grid_pathfind ~dim ~searches =
  prelude
  ^ Printf.sprintf
      {|
/* A* style grid search: open-list of node objects with parent pointers
   (the astar archetype: mixed array scans and pointer chasing) */
struct pnode {
  long x;
  long y;
  long cost;
  struct pnode* parent;
};
long grid[%d];
struct pnode* open_list[128];
long open_count;
long heuristic(long x, long y, long gx, long gy) {
  long dx = x - gx;
  long dy = y - gy;
  if (dx < 0) { dx = -dx; }
  if (dy < 0) { dy = -dy; }
  return dx + dy;
}
int main(void) {
  int dim = %d;
  for (int i = 0; i < dim * dim; i++) {
    grid[i] = (i * 2654435761) %% 7 == 0 ? 1 : 0;
  }
  long total = 0;
  for (int s = 0; s < %d; s++) {
    long gx = (s * 13) %% dim;
    long gy = (s * 29) %% dim;
    open_count = 0;
    struct pnode* start = (struct pnode*) malloc(sizeof(struct pnode));
    start->x = 0;
    start->y = 0;
    start->cost = 0;
    start->parent = NULL;
    open_list[open_count] = start;
    open_count = open_count + 1;
    long expanded = 0;
    while (open_count > 0 && expanded < 64) {
      /* pop the cheapest node */
      long best = 0;
      for (long i = 1; i < open_count; i++) {
        long fi = open_list[i]->cost
          + heuristic(open_list[i]->x, open_list[i]->y, gx, gy);
        long fb = open_list[best]->cost
          + heuristic(open_list[best]->x, open_list[best]->y, gx, gy);
        if (fi < fb) { best = i; }
      }
      struct pnode* cur = open_list[best];
      open_list[best] = open_list[open_count - 1];
      open_count = open_count - 1;
      expanded = expanded + 1;
      if (cur->x == gx && cur->y == gy) {
        /* walk the parent chain to measure the path */
        struct pnode* w = cur;
        while (w) { total = total + 1; w = w->parent; }
        break;
      }
      /* expand right and down neighbours */
      for (int d = 0; d < 2; d++) {
        long nx = cur->x + (d == 0 ? 1 : 0);
        long ny = cur->y + (d == 1 ? 1 : 0);
        if (nx < dim && ny < dim && grid[ny * dim + nx] == 0
            && open_count < 127) {
          struct pnode* n = (struct pnode*) malloc(sizeof(struct pnode));
          n->x = nx;
          n->y = ny;
          n->cost = cur->cost + 1;
          n->parent = cur;
          open_list[open_count] = n;
          open_count = open_count + 1;
        }
      }
    }
  }
  printf("astar total %%ld\n", total);
  return 0;
}
|}
      (dim * dim) dim searches

let board_scan ~dim ~plays =
  prelude
  ^ Printf.sprintf
      {|
/* Go-engine style board scanning: liberty counts and pattern hashes over
   a flat board with occasional group-structure updates (gobmk) */
long board[%d];
struct grp {
  long stones;
  struct grp* next;
};
struct grp* groups[%d];
long count_liberties(long pos, long dim) {
  long libs = 0;
  long x = pos %% dim;
  long y = pos / dim;
  if (x > 0 && board[pos - 1] == 0) { libs = libs + 1; }
  if (x < dim - 1 && board[pos + 1] == 0) { libs = libs + 1; }
  if (y > 0 && board[pos - dim] == 0) { libs = libs + 1; }
  if (y < dim - 1 && board[pos + dim] == 0) { libs = libs + 1; }
  return libs;
}
int main(void) {
  int dim = %d;
  int cells = dim * dim;
  for (int i = 0; i < cells; i++) {
    board[i] = 0;
    groups[i] = NULL;
  }
  long seed = 7;
  long captures = 0;
  long hash = 5381;
  for (int p = 0; p < %d; p++) {
    seed = (seed * 1103515245 + 12345) %% 2147483647;
    long pos = seed %% cells;
    long colour = 1 + p %% 2;
    if (board[pos] == 0) {
      board[pos] = colour;
      struct grp* g = (struct grp*) malloc(sizeof(struct grp));
      g->stones = 1;
      g->next = NULL;
      /* merge with the neighbour's group if one exists */
      if (pos > 0 && groups[pos - 1]) {
        g->next = groups[pos - 1];
        g->stones = g->stones + groups[pos - 1]->stones;
      }
      groups[pos] = g;
      if (count_liberties(pos, dim) == 0) {
        board[pos] = 0;
        groups[pos] = NULL;
        captures = captures + 1;
      }
    }
    /* full-board pattern scan, the hot loop of real gobmk *)
     */
    for (int i = 0; i < cells; i++) {
      hash = (hash * 33 + board[i] * 7 + count_liberties(i, dim))
        %% 1000000007;
    }
  }
  printf("gobmk hash %%ld captures %%ld\n", hash, captures);
  return 0;
}
|}
      (dim * dim) (dim * dim) dim plays

let motion_estimate ~frame ~blocks =
  prelude
  ^ Printf.sprintf
      {|
/* H.264-style motion estimation: sum-of-absolute-differences over byte
   frames with a small search window (h264ref) */
char ref_frame[%d];
char cur_frame[%d];
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    ref_frame[i] = (char) ((i * 31) %% 251);
    cur_frame[i] = (char) ((i * 31 + i / 64) %% 251);
  }
  long total_sad = 0;
  long best_vectors = 0;
  for (int b = 0; b < %d; b++) {
    long base = (b * 97) %% (n - 80);
    long best = 1000000;
    long best_off = 0;
    for (long off = 0; off < 16; off++) {
      long sad = 0;
      for (long i = 0; i < 64; i++) {
        long d = cur_frame[base + i] - ref_frame[base + i + off];
        if (d < 0) { d = -d; }
        sad = sad + d;
      }
      if (sad < best) { best = sad; best_off = off; }
    }
    total_sad = total_sad + best;
    best_vectors = best_vectors + best_off;
  }
  printf("h264 sad %%ld vectors %%ld\n", total_sad, best_vectors);
  return 0;
}
|}
      frame frame frame blocks

let huffman ~symbols ~rounds =
  prelude
  ^ Printf.sprintf
      {|
/* nbench Huffman works over static index arrays, not heap pointers */
long weight[%d];
long left[%d];
long right[%d];
long heap_idx[%d];
long heap_size;
void heap_push(long node) {
  long i = heap_size;
  heap_size = heap_size + 1;
  heap_idx[i] = node;
  while (i > 0 && weight[heap_idx[(i - 1) / 2]] > weight[heap_idx[i]]) {
    long tmp = heap_idx[i];
    heap_idx[i] = heap_idx[(i - 1) / 2];
    heap_idx[(i - 1) / 2] = tmp;
    i = (i - 1) / 2;
  }
}
long heap_pop(void) {
  long top = heap_idx[0];
  heap_size = heap_size - 1;
  heap_idx[0] = heap_idx[heap_size];
  long i = 0;
  while (1) {
    long l = 2 * i + 1;
    long r = 2 * i + 2;
    long best = i;
    if (l < heap_size && weight[heap_idx[l]] < weight[heap_idx[best]]) { best = l; }
    if (r < heap_size && weight[heap_idx[r]] < weight[heap_idx[best]]) { best = r; }
    if (best == i) { break; }
    long tmp = heap_idx[i];
    heap_idx[i] = heap_idx[best];
    heap_idx[best] = tmp;
    i = best;
  }
  return top;
}
long depth_sum(long node, long depth) {
  if (left[node] < 0 && right[node] < 0) { return depth * weight[node]; }
  long s = 0;
  if (left[node] >= 0) { s = s + depth_sum(left[node], depth + 1); }
  if (right[node] >= 0) { s = s + depth_sum(right[node], depth + 1); }
  return s;
}
int main(void) {
  int m = %d;
  long total = 0;
  for (int round = 0; round < %d; round++) {
    heap_size = 0;
    long next = m;
    for (int i = 0; i < m; i++) {
      weight[i] = (i * 37 + round) %% 100 + 1;
      left[i] = -1;
      right[i] = -1;
      heap_push(i);
    }
    while (heap_size > 1) {
      long a = heap_pop();
      long b = heap_pop();
      weight[next] = weight[a] + weight[b];
      left[next] = a;
      right[next] = b;
      heap_push(next);
      next = next + 1;
    }
    total = total + depth_sum(heap_pop(), 0);
  }
  printf("huffman bits %%ld\n", total);
  return 0;
}
|}
      (2 * symbols) (2 * symbols) (2 * symbols) (2 * symbols) symbols rounds

let neural_net ~neurons ~epochs =
  prelude
  ^ Printf.sprintf
      {|
double w1[%d];
double w2[%d];
double hidden_out[%d];
void apply_gradient(double* w, double* acts, double scale, long n) {
  for (long i = 0; i < n; i++) {
    w[i] = w[i] - scale * acts[i];
  }
}
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    w1[i] = 0.1 + (double) (i %% 5) * 0.05;
    w2[i] = 0.2 - (double) (i %% 3) * 0.04;
  }
  double out = 0.0;
  for (int e = 0; e < %d; e++) {
    double input = (double) (e %% 10) * 0.1;
    out = 0.0;
    for (int i = 0; i < n; i++) {
      double h = input * w1[i];
      if (h < 0.0) { h = 0.0; }
      hidden_out[i] = h;
      out = out + h * w2[i];
    }
    double err = out - 0.5;
    apply_gradient(w2, hidden_out, 0.01 * err, n);
    apply_gradient(w1, w2, 0.01 * err * input, n);
  }
  printf("nn out %%f\n", out);
  return 0;
}
|}
      neurons neurons neurons neurons epochs

let lu_decomp ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
double a[%d];
void eliminate(double* row, double* pivot, double f, long from, long to) {
  for (long j = from; j < to; j++) {
    row[j] = row[j] - f * pivot[j];
  }
}
int main(void) {
  int n = %d;
  double det = 0.0;
  for (int r = 0; r < %d; r++) {
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < n; j++) {
        a[i * n + j] = (double) (((i + 1) * (j + 2) + r) %% 17) + (i == j ? 40.0 : 0.0);
      }
    }
    for (int k = 0; k < n; k++) {
      for (int i = k + 1; i < n; i++) {
        double f = a[i * n + k] / a[k * n + k];
        eliminate(&a[i * n], &a[k * n], f, k, n);
      }
    }
    det = 1.0;
    for (int k = 0; k < n; k++) { det = det * a[k * n + k]; }
  }
  printf("lu det %%f\n", det);
  return 0;
}
|}
      (n * n) n rounds

let fourier ~terms =
  prelude
  ^ Printf.sprintf
      {|
double coeffs[%d];
double poly(double x) {
  return x * x * x - 2.0 * x * x + x - 1.0;
}
double integrate(int harmonic, int cosine) {
  double sum = 0.0;
  double step = 0.01;
  double x = 0.0;
  while (x < 2.0) {
    /* truncated-series sin/cos to stay within MiniC's surface */
    double angle = (double) harmonic * 3.141592653589793 * x;
    while (angle > 6.283185307179586) { angle = angle - 6.283185307179586; }
    double a2 = angle * angle;
    double s = angle * (1.0 - a2 / 6.0 + a2 * a2 / 120.0 - a2 * a2 * a2 / 5040.0);
    double c = 1.0 - a2 / 2.0 + a2 * a2 / 24.0 - a2 * a2 * a2 / 720.0;
    sum = sum + poly(x) * (cosine ? c : s) * step;
    x = x + step;
  }
  return sum;
}
int main(void) {
  int terms = %d;
  for (int k = 0; k < terms; k++) {
    coeffs[k] = integrate(k, k %% 2);
  }
  double sum = 0.0;
  for (int k = 0; k < terms; k++) { sum = sum + coeffs[k]; }
  printf("fourier %%f\n", sum);
  return 0;
}
|}
      terms terms

let bitfield ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
long bitmap[%d];
int main(void) {
  int n = %d;
  for (int r = 0; r < %d; r++) {
    for (int i = 0; i < n; i++) { bitmap[i] = 0; }
    for (int i = 0; i < n * 64; i = i + 3) {
      bitmap[i / 64] = bitmap[i / 64] | (1 << (i %% 64));
    }
    for (int i = 0; i < n * 64; i = i + 7) {
      bitmap[i / 64] = bitmap[i / 64] & ~(1 << (i %% 64));
    }
  }
  long pop = 0;
  for (int i = 0; i < n; i++) {
    long w = bitmap[i];
    while (w) {
      pop = pop + (w & 1);
      w = (w >> 1) & 9223372036854775807;
    }
  }
  printf("bitfield pop %%ld\n", pop);
  return 0;
}
|}
      n n rounds

let assignment ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
long cost[%d];
long assigned[%d];
int main(void) {
  int n = %d;
  long total = 0;
  for (int r = 0; r < %d; r++) {
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < n; j++) {
        cost[i * n + j] = ((i + 1) * (j + 3) + r * 7) %% 100;
      }
      assigned[i] = -1;
    }
    for (int i = 0; i < n; i++) {
      long best = -1;
      long best_cost = 1000000;
      for (int j = 0; j < n; j++) {
        long taken = 0;
        for (int k = 0; k < i; k++) {
          if (assigned[k] == j) { taken = 1; }
        }
        if (!taken && cost[i * n + j] < best_cost) {
          best_cost = cost[i * n + j];
          best = j;
        }
      }
      assigned[i] = best;
      total = total + best_cost;
    }
  }
  printf("assignment cost %%ld\n", total);
  return 0;
}
|}
      (n * n) n n rounds

let idea_cipher ~blocks =
  prelude
  ^ Printf.sprintf
      {|
long keys[52];
long data[%d];
long out_data[%d];
void store_block(long* dst, long x1, long x2, long x3, long x4) {
  dst[0] = x1;
  dst[1] = x2;
  dst[2] = x3;
  dst[3] = x4;
}
long mul_mod(long a, long b) {
  if (a == 0) { a = 65536; }
  if (b == 0) { b = 65536; }
  return (a * b) %% 65537 %% 65536;
}
int main(void) {
  int blocks = %d;
  for (int i = 0; i < 52; i++) { keys[i] = (i * 2654435761) %% 65536; }
  for (int i = 0; i < blocks; i++) { data[i] = (i * 40503) %% 65536; }
  long check = 0;
  for (int i = 0; i + 3 < blocks; i = i + 4) {
    long x1 = data[i];
    long x2 = data[i + 1];
    long x3 = data[i + 2];
    long x4 = data[i + 3];
    for (int round = 0; round < 8; round++) {
      x1 = mul_mod(x1, keys[round * 6]);
      x2 = (x2 + keys[round * 6 + 1]) %% 65536;
      x3 = (x3 + keys[round * 6 + 2]) %% 65536;
      x4 = mul_mod(x4, keys[round * 6 + 3]);
      long t = x1 ^ x3;
      t = mul_mod(t, keys[round * 6 + 4]);
      long u = ((x2 ^ x4) + t) %% 65536;
      u = mul_mod(u, keys[round * 6 + 5]);
      x1 = x1 ^ u;
      x3 = x3 ^ u;
      x2 = x2 ^ t;
      x4 = x4 ^ t;
    }
    store_block(&out_data[i], x1, x2, x3, x4);
    check = (check + out_data[i] + x2 + x3 + x4) %% 1000000007;
  }
  printf("idea check %%ld\n", check);
  return 0;
}
|}
      blocks blocks blocks

let numeric_sort ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
long arr[%d];
long shadow[%d];
void copy_longs(long* src, long* dst, long n) {
  for (long i = 0; i < n; i++) {
    dst[i] = src[i];
  }
}
void sift_down(long start, long end) {
  long root = start;
  while (2 * root + 1 <= end) {
    long child = 2 * root + 1;
    if (child + 1 <= end && arr[child] < arr[child + 1]) { child = child + 1; }
    if (arr[root] < arr[child]) {
      long tmp = arr[root];
      arr[root] = arr[child];
      arr[child] = tmp;
      root = child;
    } else {
      return;
    }
  }
}
int main(void) {
  int n = %d;
  long check = 0;
  for (int r = 0; r < %d; r++) {
    long seed = 42 + r;
    for (int i = 0; i < n; i++) {
      seed = (seed * 1103515245 + 12345) %% 2147483647;
      arr[i] = seed %% 100000;
    }
    for (long start = (n - 2) / 2; start >= 0; start--) {
      sift_down(start, n - 1);
    }
    for (long end = n - 1; end > 0; end--) {
      long tmp = arr[end];
      arr[end] = arr[0];
      arr[0] = tmp;
      sift_down(0, end - 1);
    }
    copy_longs(arr, shadow, n);
    check = (check + shadow[n / 2]) %% 1000000007;
  }
  printf("numsort %%ld\n", check);
  return 0;
}
|}
      n n n rounds

let string_sort ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
/* nbench's string sort keeps strings in a flat arena and sorts an
   offset array (not pointers) - so RSTI has almost nothing to do here */
long offsets[%d];
char storage[%d];
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    storage[i * 8] = (char) ('a' + (i * 7) %% 26);
    storage[i * 8 + 1] = (char) ('a' + (i * 13) %% 26);
    storage[i * 8 + 2] = (char) ('a' + (i * 29) %% 26);
    storage[i * 8 + 3] = 0;
    offsets[i] = i * 8;
  }
  long swaps = 0;
  for (int r = 0; r < %d; r++) {
    for (int i = 0; i < n - 1; i++) {
      for (int j = 0; j < n - 1 - i; j++) {
        long a = offsets[j];
        long b = offsets[j + 1];
        long k = 0;
        long diff = 0;
        while (k < 8) {
          char ca = storage[a + k];
          char cb = storage[b + k];
          if (ca != cb) { diff = ca - cb; k = 8; }
          else {
            if (ca == 0) { k = 8; } else { k = k + 1; }
          }
        }
        if (diff > 0) {
          offsets[j] = b;
          offsets[j + 1] = a;
          swaps = swaps + 1;
        }
      }
    }
  }
  printf("strsort swaps %%ld\n", swaps);
  return 0;
}
|}
      n (8 * n) n rounds

let fp_emulation ~n ~rounds =
  prelude
  ^ Printf.sprintf
      {|
long mantissa[%d];
long exponent[%d];
void renormalize(long* m, long* e, long n) {
  for (long i = 0; i < n; i++) {
    while (m[i] >= 1048576) { m[i] = m[i] >> 1; e[i] = e[i] + 1; }
  }
}
int main(void) {
  int n = %d;
  for (int i = 0; i < n; i++) {
    mantissa[i] = (i * 69069 + 1) %% 1048576;
    exponent[i] = i %% 32 - 16;
  }
  long check = 0;
  for (int r = 0; r < %d; r++) {
    for (int i = 0; i + 1 < n; i++) {
      long ma = mantissa[i];
      long mb = mantissa[i + 1];
      long ea = exponent[i];
      long eb = exponent[i + 1];
      while (ea < eb) { ma = ma >> 1; ea = ea + 1; }
      while (eb < ea) { mb = mb >> 1; eb = eb + 1; }
      long ms = ma + mb;
      long es = ea;
      while (ms >= 1048576) { ms = ms >> 1; es = es + 1; }
      mantissa[i] = ms;
      exponent[i] = es;
    }
    renormalize(mantissa, exponent, n);
    check = (check + mantissa[n / 2]) %% 1000000007;
  }
  printf("fpemu %%ld\n", check);
  return 0;
}
|}
      n n n rounds
