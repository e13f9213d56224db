// Command service demonstrates CAPE as an HTTP microservice: it mounts
// the API handler on a local listener, loads the running example, mines
// a pattern set, asks the paper's question over the wire, and prints the
// JSON responses — the whole offline/online lifecycle as a client would
// drive it.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"cape"
)

func main() {
	// Mount the API on an ephemeral local listener.
	srv := cape.NewHTTPHandler()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("CAPE service listening on %s\n\n", ts.URL)

	// 1. Load the running example as CSV over the wire.
	var csv bytes.Buffer
	if err := cape.RunningExample().WriteCSV(&csv); err != nil {
		log.Fatal(err)
	}
	post(ts.URL+"/v1/tables?name=pub", "text/csv", csv.Bytes())
	fmt.Println("loaded table 'pub'")

	// 2. List the loaded tables.
	fmt.Printf("\ntables: %s\n", compact(get(ts.URL+"/v1/tables")))

	// 3. Mine patterns offline.
	mineResp := postJSON(ts.URL+"/v1/mine", map[string]interface{}{
		"table":          "pub",
		"maxPatternSize": 3,
		"theta":          0.5, "localSupport": 3, "lambda": 0.3, "globalSupport": 2,
		"aggregates": []string{"count"},
	})
	var mined struct {
		ID       string `json:"id"`
		Patterns int    `json:"patterns"`
	}
	if err := json.Unmarshal(mineResp, &mined); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmined pattern set %s with %d patterns\n", mined.ID, mined.Patterns)

	// 4. Ask the paper's question online.
	explainResp := postJSON(ts.URL+"/v1/explain", map[string]interface{}{
		"patterns": mined.ID,
		"groupBy":  []string{"author", "venue", "year"},
		"tuple":    []string{"AX", "SIGKDD", "2007"},
		"dir":      "low",
		"k":        3,
		"numeric":  map[string]float64{"year": 4},
	})
	var expl struct {
		Question     string `json:"question"`
		Explanations []struct {
			Narration string  `json:"narration"`
			Score     float64 `json:"score"`
		} `json:"explanations"`
	}
	if err := json.Unmarshal(explainResp, &expl); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", expl.Question)
	for i, e := range expl.Explanations {
		fmt.Printf("  %d. (score %.2f) %s\n", i+1, e.Score, e.Narration)
	}
}

func get(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	return readOK(url, resp)
}

func post(url, contentType string, body []byte) []byte {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	return readOK(url, resp)
}

// readOK returns the response body, exiting on a non-2xx status.
func readOK(url string, resp *http.Response) []byte {
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("%s %s: %d %s", resp.Request.Method, url, resp.StatusCode, out)
	}
	return out
}

func postJSON(url string, body interface{}) []byte {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	return post(url, "application/json", data)
}

func compact(raw []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}
