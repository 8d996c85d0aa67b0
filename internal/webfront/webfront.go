// Package webfront implements SafeWeb's web frontend layer (paper §4.4,
// Fig. 3): a Sinatra-style router whose every request is authenticated
// centrally, executed against labelled data, and checked at response time.
//
// The request lifecycle follows Fig. 3 exactly:
//
//  1. The request is authenticated (HTTP basic auth against the web
//     database) and the user's confidentiality privileges are fetched.
//  2. The handler queries the application database; fetched documents are
//     wrapped as labelled values (taint.Doc). A stored revision never
//     changes, so its labelled form is built once, on first read, and kept
//     with the revision (docs.go); every request gets containers of its
//     own over those shared immutable leaves.
//  3. The handler produces the response from labelled values; every write
//     into the response accumulates labels.
//  4. Before the response is sent, its label set is compared against the
//     user's privileges; without full clearance the operation is aborted
//     and an error page is returned instead.
//
// Step 4 — the check-on-release — is what turns application bugs (omitted
// or wrong access checks, §5.2) into denied requests instead of data
// disclosures.
package webfront

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"safeweb/internal/jail"
	"safeweb/internal/label"
	"safeweb/internal/taint"
	"safeweb/internal/template"
	"safeweb/internal/webdb"
)

// HandlerFunc handles one routed request.
type HandlerFunc func(c *Ctx) error

// Config configures an App.
type Config struct {
	// WebDB authenticates users and supplies their privileges. Required.
	WebDB *webdb.DB
	// DisableTracking turns the taint-tracking safety net off: documents
	// wrap unlabelled and the release check is skipped. It exists for the
	// paper's baseline measurements ("without SafeWeb's taint tracking
	// library", §5.3) and for demonstrating that injected vulnerabilities
	// really disclose data without SafeWeb. Production deployments leave
	// it false.
	DisableTracking bool
	// AuthWork models the cost of credential verification in hash
	// iterations. The paper's deployment spends 87 ms in HTTP basic
	// authentication (Fig. 5); the default of 1 measures the mechanism,
	// and the evaluation harness raises it to study the paper's latency
	// break-down shape.
	AuthWork int
	// OnRequest observes per-request phase timings after each request;
	// used by the Figure 5 benchmarks. May be nil.
	OnRequest func(PhaseTimes)
	// Logf logs; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// PhaseTimes is the latency break-down of one request, mirroring the
// frontend phases of Figure 5.
type PhaseTimes struct {
	// Auth is time spent authenticating the user.
	Auth time.Duration
	// PrivFetch is time spent fetching the user's privileges.
	PrivFetch time.Duration
	// Handler is time spent in the route handler (template rendering,
	// database access, label propagation).
	Handler time.Duration
	// LabelCheck is time spent checking response labels against the
	// user's privileges.
	LabelCheck time.Duration
	// Status is the final HTTP status.
	Status int
}

// Stats counts frontend activity.
type Stats struct {
	// Requests counts completed requests.
	Requests uint64
	// Blocked counts responses suppressed by the label check — each one
	// is a prevented disclosure.
	Blocked uint64
	// AuthFailures counts failed authentications.
	AuthFailures uint64
	// DocReads counts reads of a stored revision's labelled forms (the
	// wrapped document, its JSON; see WrapDoc and DocJSON), and DocBuilds
	// those that found the form missing and built it: the first read of
	// each form of each revision. Building the JSON reads the wrapped
	// form. 1 - DocBuilds/DocReads is the share of reads the per-revision
	// memo answered.
	DocReads  uint64
	DocBuilds uint64
}

// App is the SafeWeb web application host.
type App struct {
	cfg    Config
	routes []route
	smartcardState

	violations jail.Ring[Violation]

	requests     atomic.Uint64
	blocked      atomic.Uint64
	authFailures atomic.Uint64
	docReads     atomic.Uint64
	docBuilds    atomic.Uint64
}

// Violation records one blocked response.
type Violation struct {
	// Username is the authenticated user whose privileges were
	// insufficient.
	Username string
	// Path is the request path.
	Path string
	// Missing is a label on the response that the user lacks clearance
	// for.
	Missing label.Label
	// Time is when the block happened.
	Time time.Time
}

type route struct {
	method  string
	parts   []string // pattern split on '/', ":name" binds a param
	params  int      // how many of parts bind a param
	handler HandlerFunc
	public  bool
}

// New creates an App.
func New(cfg Config) (*App, error) {
	if cfg.WebDB == nil {
		return nil, errors.New("webfront: Config.WebDB is required")
	}
	if cfg.AuthWork <= 0 {
		cfg.AuthWork = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &App{cfg: cfg}, nil
}

// Get registers a GET route. Patterns use ":name" path parameters, e.g.
// "/records/:mid" (Listing 2).
func (a *App) Get(pattern string, h HandlerFunc) { a.route(http.MethodGet, pattern, h, false) }

// Post registers a POST route.
func (a *App) Post(pattern string, h HandlerFunc) { a.route(http.MethodPost, pattern, h, false) }

// GetPublic registers an unauthenticated GET route (health checks, login
// pages). Handlers see a nil User and empty privileges, so any labelled
// data reaching the response is blocked.
func (a *App) GetPublic(pattern string, h HandlerFunc) { a.route(http.MethodGet, pattern, h, true) }

func (a *App) route(method, pattern string, h HandlerFunc, public bool) {
	r := route{
		method:  method,
		parts:   strings.Split(strings.Trim(pattern, "/"), "/"),
		handler: h,
		public:  public,
	}
	for _, p := range r.parts {
		if strings.HasPrefix(p, ":") {
			r.params++
		}
	}
	a.routes = append(a.routes, r)
}

// Stats returns a snapshot of frontend counters.
func (a *App) Stats() Stats {
	return Stats{
		Requests:     a.requests.Load(),
		Blocked:      a.blocked.Load(),
		AuthFailures: a.authFailures.Load(),
		DocReads:     a.docReads.Load(),
		DocBuilds:    a.docBuilds.Load(),
	}
}

// Violations returns the blocked-response log: the newest jail.RingCap
// blocks, oldest first.
func (a *App) Violations() []Violation { return a.violations.Entries() }

// Dropped returns the number of blocks dropped from the log.
func (a *App) Dropped() uint64 { return a.violations.Dropped() }

// match finds a route and binds path parameters. Parameters are bound only
// once a route has matched, and a route without any binds none (a nil map
// reads as empty).
func (a *App) match(method, path string) (*route, map[string]string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for i := range a.routes {
		r := &a.routes[i]
		if r.method != method || !r.matches(parts) {
			continue
		}
		if r.params == 0 {
			return r, nil
		}
		params := make(map[string]string, r.params)
		for j, p := range r.parts {
			if strings.HasPrefix(p, ":") {
				params[p[1:]] = parts[j]
			}
		}
		return r, params
	}
	return nil, nil
}

// matches reports whether the path segments fit the route's pattern.
func (r *route) matches(parts []string) bool {
	if len(r.parts) != len(parts) {
		return false
	}
	for j, p := range r.parts {
		if p != parts[j] && !strings.HasPrefix(p, ":") {
			return false
		}
	}
	return true
}

// hashChain is the credential-hashing work: n SHA-256 invocations, the
// first over the password and each later one over the digest before it.
// The chain lives in one fixed array, so the work costs its hash
// iterations — the paper's cost model — and no garbage (beyond one copy of
// a password too long for the compiler's 32-byte conversion buffer).
func hashChain(password string, n int) [sha256.Size]byte {
	var sum [sha256.Size]byte
	if n > 0 {
		sum = sha256.Sum256([]byte(password))
	}
	for i := 1; i < n; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return sum
}

// verifyCredentials performs the configured amount of credential-hashing
// work, then checks the password. The extra iterations model production
// password hashing (the paper's 87 ms basic-auth cost).
func (a *App) verifyCredentials(username, password string) (*webdb.User, error) {
	hashChain(password, a.cfg.AuthWork-1)
	return a.cfg.WebDB.Authenticate(username, password)
}

// ServeHTTP implements http.Handler.
func (a *App) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer a.requests.Add(1)
	var phases PhaseTimes
	defer func() {
		if a.cfg.OnRequest != nil {
			a.cfg.OnRequest(phases)
		}
	}()

	rt, params := a.match(r.Method, r.URL.Path)
	if rt == nil {
		phases.Status = http.StatusNotFound
		http.NotFound(w, r)
		return
	}

	// Step 1: central authentication (the paper hooks every Sinatra
	// rule, §5.1). Smartcard, session cookie and HTTP basic auth all
	// resolve to the same user record.
	var user *webdb.User
	var privs *label.Privileges
	if rt.public {
		privs = label.NewPrivileges()
	} else {
		start := time.Now()
		u, err := a.authenticateRequest(r)
		phases.Auth = time.Since(start)
		if err != nil {
			if !errors.Is(err, errNoCredentials) {
				a.authFailures.Add(1)
			}
			phases.Status = http.StatusUnauthorized
			w.Header().Set("WWW-Authenticate", `Basic realm="safeweb"`)
			http.Error(w, "authentication required", http.StatusUnauthorized)
			return
		}
		user = u

		// Fetch the user's privileges from the web database (Fig. 3
		// step 1).
		start = time.Now()
		privs, err = a.cfg.WebDB.PrivilegesOf(u.ID)
		phases.PrivFetch = time.Since(start)
		if err != nil {
			phases.Status = http.StatusInternalServerError
			http.Error(w, "privilege lookup failed", http.StatusInternalServerError)
			return
		}
	}

	ctx := &Ctx{
		app:     a,
		Request: r,
		Params:  params,
		User:    user,
		Privs:   privs,
		status:  http.StatusOK,
		header:  make(http.Header),
	}

	// Steps 2-3: run the handler, accumulating labelled output.
	start := time.Now()
	err := rt.handler(ctx)
	phases.Handler = time.Since(start)
	if err != nil {
		var httpErr *HTTPError
		if errors.As(err, &httpErr) {
			phases.Status = httpErr.Status
			http.Error(w, httpErr.Msg, httpErr.Status)
			return
		}
		a.cfg.Logf("webfront: handler %s %s: %v", r.Method, r.URL.Path, err)
		phases.Status = http.StatusInternalServerError
		http.Error(w, "internal error", http.StatusInternalServerError)
		return
	}

	// Step 4: check-on-release.
	start = time.Now()
	blockedBy, ok := a.checkRelease(ctx)
	phases.LabelCheck = time.Since(start)
	if !ok {
		a.blocked.Add(1)
		username := ""
		if user != nil {
			username = user.Username
		}
		a.violations.Add(Violation{
			Username: username,
			Path:     r.URL.Path,
			Missing:  blockedBy,
			Time:     time.Now(),
		})
		a.cfg.Logf("webfront: blocked response to %s for %q: no clearance for %s",
			username, r.URL.Path, blockedBy)
		phases.Status = http.StatusForbidden
		// The body is suppressed entirely; the error reveals nothing
		// about the data.
		http.Error(w, "access denied by data flow policy", http.StatusForbidden)
		return
	}

	phases.Status = ctx.status
	for k, vs := range ctx.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(ctx.status)
	if _, err := w.Write(ctx.body); err != nil {
		a.cfg.Logf("webfront: write response: %v", err)
	}
}

// checkRelease validates the response labels against the user's clearance
// ("the client's privileges are validated to be a superset of the
// confidentiality labels associated with n", §4.4). Integrity labels do
// not restrict release. The user-input marker (package taint's injection
// guard, §4.4 last paragraph) blocks release unconditionally: a response
// still carrying it contains unsanitised user input.
func (a *App) checkRelease(ctx *Ctx) (label.Label, bool) {
	if a.cfg.DisableTracking {
		return label.Label{}, true
	}
	if userTaint := taint.UserTaintLabel(); ctx.labels.Contains(userTaint) {
		return userTaint, false
	}
	for l := range ctx.labels.Confidentiality() {
		if !ctx.Privs.Has(label.Clearance, l) {
			return l, false
		}
	}
	return label.Label{}, true
}

// HTTPError lets handlers return a specific status without tripping the
// 500 path.
type HTTPError struct {
	// Status is the HTTP status code.
	Status int
	// Msg is the response body.
	Msg string
}

// Error implements the error interface.
func (e *HTTPError) Error() string { return fmt.Sprintf("http %d: %s", e.Status, e.Msg) }

// ErrNotFound is a 404 handler error.
func ErrNotFound(what string) error {
	return &HTTPError{Status: http.StatusNotFound, Msg: what + " not found"}
}

// ErrForbidden is a 403 handler error for application-level access checks
// (the checks SafeWeb backstops but does not replace).
func ErrForbidden(msg string) error {
	return &HTTPError{Status: http.StatusForbidden, Msg: msg}
}

// Ctx is the per-request context passed to handlers.
type Ctx struct {
	app *App
	// Request is the inbound request.
	Request *http.Request
	// Params holds ":name" path parameters; nil for a route without any.
	Params map[string]string
	// User is the authenticated user; nil on public routes.
	User *webdb.User
	// Privs is the user's label privileges.
	Privs *label.Privileges

	status int
	header http.Header
	body   []byte
	labels label.Set
}

// Param returns a path parameter.
func (c *Ctx) Param(name string) string { return c.Params[name] }

// ParamTainted returns a path parameter as user-tainted input: echoing it
// into the response without sanitisation blocks the response (the XSS
// guard of taint.FromUser).
func (c *Ctx) ParamTainted(name string) taint.String {
	return taint.FromUser(c.Params[name])
}

// Query returns a query parameter as user-tainted input.
func (c *Ctx) Query(name string) taint.String {
	return taint.FromUser(c.Request.URL.Query().Get(name))
}

// Status sets the response status (default 200).
func (c *Ctx) Status(code int) { c.status = code }

// Header sets a response header.
func (c *Ctx) Header(key, value string) { c.header.Set(key, value) }

// Write appends labelled content to the response; its labels join the
// response label set that the release check validates.
func (c *Ctx) Write(s taint.String) {
	c.body = append(c.body, s.Raw()...)
	c.labels = c.labels.Union(s.Labels())
}

// WriteString appends plain (unlabelled) content.
func (c *Ctx) WriteString(s string) { c.body = append(c.body, s...) }

// JSON writes a labelled string as an application/json response.
func (c *Ctx) JSON(s taint.String) {
	c.Header("Content-Type", "application/json")
	c.Write(s)
}

// Render renders a template into the response, accumulating the labels of
// everything the template interpolated.
func (c *Ctx) Render(t *template.Template, tctx template.Context) error {
	out, err := t.Render(tctx)
	if err != nil {
		return fmt.Errorf("webfront: render %s: %w", t.Name(), err)
	}
	c.Header("Content-Type", "text/html; charset=utf-8")
	c.Write(out)
	return nil
}

// ResponseLabels exposes the labels accumulated so far (for tests).
func (c *Ctx) ResponseLabels() label.Set { return c.labels }
